package mathx

import (
	"math"
	"math/bits"
	"strconv"
)

//go:generate go run gen_pow10.go

// Shortest round-trip float rendering for the service's NDJSON bodies.
//
// AppendFloat64 produces exactly the bytes of strconv.AppendFloat(dst, v,
// 'g', -1, 64) — the same pin pattern as SinInto against math.Sin. Digit
// generation is Schubfach (Giulietti, "The Schubfach way to render
// doubles", 2020; the algorithm behind Java 19's Double.toString): three
// round-to-odd 64×126-bit products against pow10G locate the rounding
// interval's ends and the value itself on a decimal grid, and the
// shortest grid point inside the interval — the closest one, ties to an
// even digit — is the answer. strconv's Ryū picks the same decimal by
// the same rule, so only the layout below has to follow strconv's 'g'.
//
// Zero, subnormals, NaN and ±Inf go to strconv: they are rare in rows,
// and the fallback keeps them exact by construction. It also keeps out
// Java's two-digit rule for tiny subnormals (4.9e-324 against Go's
// 5e-324); for normal values the candidate s below is at least 2⁵², so
// the rule never applies.

// MaxFloat64Len is the longest AppendFloat64 output:
// "-1.2345678901234567e-308" and "-0.00012345678901234567" are 24 bytes.
const MaxFloat64Len = 24

// digitPairs holds "00" through "99".
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// AppendFloat64 appends the shortest decimal that parses back to v to dst
// and returns the extended slice. The bytes equal strconv.AppendFloat(dst,
// v, 'g', -1, 64): exponent form e±dd when the decimal exponent is below
// -4 or at least 6, plain form otherwise.
func AppendFloat64(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	be := int(b>>52) & 0x7ff
	if be == 0 || be == 0x7ff {
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	if int64(b) < 0 {
		dst = append(dst, '-')
	}
	f, e := schubfach(be-1075, b&(1<<52-1)|1<<52)
	return appendDecimal(dst, f, e)
}

// schubfach returns the shortest decimal f·10^e in the rounding interval
// of the normal float64 c·2^q, 2⁵² ≤ c < 2⁵³.
func schubfach(q int, c uint64) (f uint64, e int) {
	// Odd c excludes the interval's ends (round half to even picks the
	// neighbor there); the comparisons below add out to make them strict.
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	var k int
	if c != 1<<52 || q == -1074 {
		k = flog10pow2(q)
	} else {
		// At a power of two the float below is half as far away.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := uint(q + flog2pow10(-k) + 2)
	g := &pow10G[-k-pow10Min]
	// vb, vbl, vbr are 4·(value, lower end, upper end)·10^-k, rounded to
	// odd so a nonzero fraction always shows in the last bit.
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	// s ≥ c ≥ 2⁵², so the multiples of 10 around s, one decimal digit
	// shorter, are tried first. The interval is narrower than 10·10^k,
	// so at most one of them fits.
	s := vb >> 2
	sp := s / 10 * 10
	tp := sp + 10
	upin := vbl+out <= sp<<2
	wpin := tp<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp, k
		}
		return tp, k
	}
	// Otherwise one or both of s, s+1 fit; the closer wins, ties to even.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop returns g·cp / 2¹²⁷ rounded to odd, for g = g1·2⁶³ + g0.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// flog10pow2 returns floor(e·log10(2)) for |e| ≤ 5456721.
func flog10pow2(e int) int { return int(int64(e) * 661971961083 >> 41) }

// flog10ThreeQuartersPow2 returns floor(log10(3/4·2^e)) for |e| ≤ 5456721.
func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661971961083 - 274743187321) >> 41)
}

// flog2pow10 returns floor(e·log2(10)) for |e| ≤ 6432162.
func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

// appendDecimal appends f·10^e, 1 ≤ f < 10¹⁸, in strconv's shortest 'g'
// layout.
func appendDecimal(dst []byte, f uint64, e int) []byte {
	var buf [20]byte
	i := len(buf)
	for f >= 100 {
		r := f % 100
		f /= 100
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if f >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*f], digitPairs[2*f+1]
	} else {
		i--
		buf[i] = byte('0' + f)
	}
	n := len(buf)
	for buf[n-1] == '0' {
		n--
		e++
	}
	d := buf[i:n]
	nd := len(d)
	dp := nd + e // the decimal point sits after d[dp-1]

	if x := dp - 1; x < -4 || x >= 6 {
		dst = append(dst, d[0])
		if nd > 1 {
			dst = append(dst, '.')
			dst = append(dst, d[1:]...)
		}
		sign := byte('+')
		if x < 0 {
			sign, x = '-', -x
		}
		if x < 100 {
			return append(dst, 'e', sign, digitPairs[2*x], digitPairs[2*x+1])
		}
		return append(dst, 'e', sign, byte('0'+x/100), digitPairs[2*(x%100)], digitPairs[2*(x%100)+1])
	}
	switch {
	case dp <= 0:
		dst = append(dst, '0', '.')
		for ; dp < 0; dp++ {
			dst = append(dst, '0')
		}
		dst = append(dst, d...)
	case dp >= nd:
		dst = append(dst, d...)
		for ; nd < dp; nd++ {
			dst = append(dst, '0')
		}
	default:
		dst = append(dst, d[:dp]...)
		dst = append(dst, '.')
		dst = append(dst, d[dp:]...)
	}
	return dst
}
