package mathx

import (
	"bytes"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// checkFloat64 fails t unless AppendFloat64 renders v exactly as
// strconv.AppendFloat(…, 'g', -1, 64), the oracle, and keeps dst's prefix.
// got and want are scratch buffers, reused across calls.
func checkFloat64(t testing.TB, got, want []byte, v float64) {
	got = AppendFloat64(append(got[:0], '['), v)
	want = strconv.AppendFloat(append(want[:0], '['), v, 'g', -1, 64)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendFloat64(%#016x) = %q, strconv = %q", math.Float64bits(v), got[1:], want[1:])
	}
}

// TestAppendFloat64MatchesStrconv pins byte equality with strconv over
// every binary exponent with its boundary mantissas, the special values,
// and the decimal shapes rows are made of: integers, k/1000 and sums of
// 0.2 steps (which carry representation error in the last digit).
func TestAppendFloat64MatchesStrconv(t *testing.T) {
	got, want := make([]byte, 64), make([]byte, 64)
	const maxMant = 1<<52 - 1
	for be := uint64(0); be <= 0x7ff; be++ {
		for _, m := range []uint64{0, 1, 2, 3, maxMant - 3, maxMant - 2, maxMant - 1, maxMant} {
			for _, sign := range []uint64{0, 1 << 63} {
				checkFloat64(t, got, want, math.Float64frombits(sign|be<<52|m))
			}
		}
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.Float64frombits(maxMant), // min and max subnormal
		math.Float64frombits(1 << 52), math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
		1e-5, 1e-4, 0.0001234, 99999.99999999999, 999999, 1e6, 1e7,
		1 << 53, 1<<53 + 2, 1e15, 1e16, 1e17, 1e21, 1e22, 1e23, 5e-324, 1.7976931348623157e308,
	} {
		checkFloat64(t, got, want, v)
	}
	for i := 0; i <= 1_000_000; i++ {
		checkFloat64(t, got, want, float64(i))
		checkFloat64(t, got, want, float64(i)/1000)
	}
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += 0.2
		checkFloat64(t, got, want, x)
		checkFloat64(t, got, want, -x/7)
	}
}

// TestAppendFloat64RandomBits compares against strconv on 10⁷ random
// bit patterns (all of float64, NaNs and subnormals included) and on a
// batch of in-range values with full 17-digit mantissas.
func TestAppendFloat64RandomBits(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	got, want := make([]byte, 64), make([]byte, 64)
	rng := rand.New(rand.NewPCG(20, 26))
	for i := 0; i < n; i++ {
		checkFloat64(t, got, want, math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < n/10; i++ {
		checkFloat64(t, got, want, (rng.Float64()-0.5)*math.Pow(10, float64(rng.IntN(20)-8)))
	}
}

// TestPow10Table rebuilds the shipped power-of-ten table with math/big
// and checks the integer logarithms the kernel indexes and shifts it by.
func TestPow10Table(t *testing.T) {
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 63), big.NewInt(1))
	for e := pow10Min; e <= pow10Max; e++ {
		// 10^e = β·2^r with r = flog2pow10(e) - 125; g = floor(β) + 1.
		r := flog2pow10(e) - 125
		num, den := pow10Frac(e)
		if r >= 0 {
			den.Lsh(den, uint(r))
		} else {
			num.Lsh(num, uint(-r))
		}
		g := new(big.Int).Quo(num, den)
		g.Add(g, big.NewInt(1))
		if g.BitLen() != 126 {
			t.Fatalf("1e%d: g has %d bits, want 126", e, g.BitLen())
		}
		g1 := new(big.Int).Rsh(g, 63).Uint64()
		g0 := new(big.Int).And(g, mask).Uint64()
		if pow10G[e-pow10Min] != [2]uint64{g1, g0} {
			t.Fatalf("pow10G 1e%d = %#x, math/big gives {%#x, %#x}", e, pow10G[e-pow10Min], g1, g0)
		}
	}

	// floorLog10 is floor(log10(m·2^b)), found by exact comparison.
	floorLog10 := func(m int64, b int) int {
		k := int(math.Floor(math.Log10(float64(m)) + float64(b)*math.Log10(2)))
		for cmp10Pow2(k, m, b) > 0 {
			k--
		}
		for cmp10Pow2(k+1, m, b) <= 0 {
			k++
		}
		return k
	}
	for q := -1074; q <= 971; q++ {
		if got, want := flog10pow2(q), floorLog10(1, q); got != want {
			t.Fatalf("flog10pow2(%d) = %d, want %d", q, got, want)
		}
		if got, want := flog10ThreeQuartersPow2(q), floorLog10(3, q-2); got != want {
			t.Fatalf("flog10ThreeQuartersPow2(%d) = %d, want %d", q, got, want)
		}
	}
	for e := pow10Min; e <= pow10Max; e++ {
		r := flog2pow10(e)
		if cmp10Pow2(e, 1, r) < 0 || cmp10Pow2(e, 1, r+1) >= 0 {
			t.Fatalf("flog2pow10(%d) = %d is not floor(log2(1e%d))", e, r, e)
		}
	}
}

// pow10Frac returns 10^e as a fraction num/den of fresh big.Ints.
func pow10Frac(e int) (num, den *big.Int) {
	p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
	if e >= 0 {
		return p, big.NewInt(1)
	}
	return big.NewInt(1), p
}

// cmp10Pow2 compares 10^a with m·2^b exactly.
func cmp10Pow2(a int, m int64, b int) int {
	l, r := pow10Frac(a)
	r.Mul(r, big.NewInt(m))
	if b >= 0 {
		r.Lsh(r, uint(b))
	} else {
		l.Lsh(l, uint(-b))
	}
	return l.Cmp(r)
}

// FuzzAppendFloat64 checks arbitrary bit patterns against strconv. The
// seed corpus — exponent and mantissa boundaries, specials, row-like
// values — runs under plain go test.
func FuzzAppendFloat64(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.2 + 0.1, 1e-4, 9.999999999999999e-5, 1e6, 999999.9999999999,
		123456, 1234567, 1 << 53, 1<<53 + 2, 1e21, 1e23, 2.5e-308,
		math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), math.Float64frombits(1 << 52),
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
		12.566370614359172, -0.0007853981633974483, 60,
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		checkFloat64(t, nil, nil, math.Float64frombits(b))
	})
}

// TestAppendFloat64Allocs pins that rendering into a pre-sized buffer
// allocates nothing, for the fast path and the strconv fallback alike.
func TestAppendFloat64Allocs(t *testing.T) {
	buf := make([]byte, 0, 16*MaxFloat64Len)
	vals := []float64{3.141592653589793, -2.5e-7, 1e300, 42, 0, math.NaN(), math.Inf(-1), 5e-324}
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for _, v := range vals {
			buf = AppendFloat64(buf, v)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendFloat64 into a pre-sized buffer: %v allocs/run, want 0", allocs)
	}
}

// rowValues is a row-like benchmark input: phases and phase differences
// with full 17-digit mantissas over a few decades.
func rowValues() []float64 {
	rng := rand.New(rand.NewPCG(1, 1))
	xs := make([]float64, 2048)
	for i := range xs {
		xs[i] = (rng.Float64() - 0.3) * math.Pow(10, float64(i%5-2))
	}
	return xs
}

func BenchmarkAppendFloat64(b *testing.B) {
	xs := rowValues()
	buf := make([]byte, 0, len(xs)*MaxFloat64Len)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, x := range xs {
			buf = AppendFloat64(buf, x)
		}
	}
}

func BenchmarkStrconvAppendFloatLoop(b *testing.B) {
	xs := rowValues()
	buf := make([]byte, 0, len(xs)*MaxFloat64Len)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, x := range xs {
			buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
		}
	}
}
