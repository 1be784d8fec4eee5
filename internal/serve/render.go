package serve

import (
	"repro/internal/archive"
	"repro/internal/mathx"
)

// AppendRow appends the NDJSON encoding of one sample row to dst and
// returns the extended slice:
//
//	{"t":<t>,"y":[<y0>,<y1>,…]}\n
//
// Floats render through mathx.AppendFloat64, the shortest round-trip
// form pinned byte-equal to strconv's 'g', -1, so the text parses back to
// the exact same bits and — critically — equal float64 inputs always
// render to equal bytes. That single renderer is what makes the
// service's byte-identity guarantees hold: a fresh run renders rows
// straight off the solver's reused sample buffer, a cache hit renders
// the bitwise-exact rows decoded from the archive, and the two bodies
// match byte for byte. The e2e suite renders its direct sim.Run
// reference through this same function.
func AppendRow(dst []byte, t float64, y []float64) []byte {
	dst = append(dst, `{"t":`...)
	dst = mathx.AppendFloat64(dst, t)
	dst = append(dst, `,"y":[`...)
	for i, v := range y {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = mathx.AppendFloat64(dst, v)
	}
	dst = append(dst, ']', '}', '\n')
	return dst
}

// maxRowLen bounds the length of an AppendRow row of width values.
func maxRowLen(width int) int {
	return len(`{"t":,"y":[]}`+"\n") + (width+1)*(mathx.MaxFloat64Len+1)
}

// appendRows renders rec's rows from row k on into dst, stopping before
// the first row that might take dst past limit bytes; the first row
// always goes in. It returns dst and the next row to render.
func appendRows(dst []byte, rec *archive.Record, k, limit int) ([]byte, int) {
	bound := maxRowLen(rec.Width)
	for ; k < rec.NSamples(); k++ {
		if len(dst) > 0 && len(dst)+bound > limit {
			break
		}
		dst = AppendRow(dst, rec.Ts[k], rec.Row(k))
	}
	return dst, k
}

// RenderRecord renders an archived record to the NDJSON body its
// original run streamed. The archive round trip is bitwise-exact and
// AppendRow is deterministic, so the output equals the original bytes.
// The body is sized for the longest possible rows, so it allocates once.
func RenderRecord(rec *archive.Record) []byte {
	n := rec.NSamples() * maxRowLen(rec.Width)
	out, _ := appendRows(make([]byte, 0, n), rec, 0, n)
	return out
}
