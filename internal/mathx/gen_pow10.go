//go:build ignore

// gen_pow10 writes pow10tab.go, the 126-bit power-of-ten table behind
// AppendFloat64. Run it with `go generate ./internal/mathx`.
//
// Entry e - pow10Min holds g = floor(β) + 1 split as g1·2⁶³ + g0, where
// 10^e = β·2^r with 2¹²⁵ ≤ β < 2¹²⁶ (Giulietti, "The Schubfach way to
// render doubles", §9), for every e the float64 exponent range needs.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"math/big"
	"os"
)

const pow10Min, pow10Max = -292, 324

func main() {
	var b bytes.Buffer
	b.WriteString(`// Code generated by gen_pow10.go; DO NOT EDIT.

package mathx

// pow10Min and pow10Max bound the decimal exponents e of pow10G.
const (
	pow10Min = -292
	pow10Max = 324
)

// pow10G[e-pow10Min] is {g1, g0} with g = g1·2⁶³ + g0 = floor(10^e·2^-r) + 1,
// where r = flog2pow10(e) - 125 puts g in (2¹²⁵, 2¹²⁶].
var pow10G = [pow10Max - pow10Min + 1][2]uint64{
`)
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 63), big.NewInt(1))
	for e := pow10Min; e <= pow10Max; e++ {
		g := pow10Entry(e)
		g1 := new(big.Int).Rsh(g, 63)
		g0 := new(big.Int).And(g, mask)
		fmt.Fprintf(&b, "\t{%#016x, %#016x}, // 1e%d\n", g1.Uint64(), g0.Uint64(), e)
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("pow10tab.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// pow10Entry returns floor(β) + 1 for 10^e = β·2^r, 2¹²⁵ ≤ β < 2¹²⁶.
func pow10Entry(e int) *big.Int {
	one := big.NewInt(1)
	if e >= 0 {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(e)), nil)
		if s := p.BitLen() - 126; s >= 0 {
			p.Rsh(p, uint(s))
		} else {
			p.Lsh(p, uint(-s))
		}
		return p.Add(p, one)
	}
	p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(-e)), nil)
	num := new(big.Int).Lsh(one, uint(p.BitLen()+125))
	return num.Add(num.Quo(num, p), one)
}
