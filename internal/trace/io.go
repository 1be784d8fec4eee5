package trace

import (
	"bufio"
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV serializes the trace as CSV with one row per span plus one row
// per iteration mark:
//
//	span,<rank>,<kind>,<start>,<end>
//	iter,<rank>,<index>,<time>
//
// The format is line-oriented and diff-friendly so traces can be archived
// next to experiment outputs and inspected with standard tools — the role
// of ITAC's trace files.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"record", "rank", "a", "b", "c"}); err != nil {
		return err
	}
	for r, spans := range t.Spans {
		for _, s := range spans {
			err := cw.Write([]string{
				"span",
				strconv.Itoa(r),
				s.Kind.String(),
				strconv.FormatFloat(s.Start, 'g', -1, 64),
				strconv.FormatFloat(s.End, 'g', -1, 64),
			})
			if err != nil {
				return err
			}
		}
	}
	for r, ends := range t.IterEnds {
		for k, ts := range ends {
			err := cw.Write([]string{
				"iter",
				strconv.Itoa(r),
				strconv.Itoa(k),
				strconv.FormatFloat(ts, 'g', -1, 64),
				"",
			})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}
