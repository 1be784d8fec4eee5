package trace

import (
	"bytes"
	"testing"
)

// TestWriteCSV pins the CSV layout: a header, one row per span in rank
// order, then one row per iteration mark, with floats in shortest form.
func TestWriteCSV(t *testing.T) {
	tr := NewTrace(3)
	tr.Record(0, SpanCompute, 0, 1.5)
	tr.Record(0, SpanComm, 1.5, 2)
	tr.Record(1, SpanCompute, 0, 2)
	tr.Record(2, SpanComm, 0.25, 0.75)
	tr.MarkIterEnd(0, 2)
	tr.MarkIterEnd(0, 4)
	tr.MarkIterEnd(1, 0.1)

	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "record,rank,a,b,c\n" +
		"span,0,compute,0,1.5\n" +
		"span,0,comm,1.5,2\n" +
		"span,1,compute,0,2\n" +
		"span,2,comm,0.25,0.75\n" +
		"iter,0,0,2,\n" +
		"iter,0,1,4,\n" +
		"iter,1,0,0.1,\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV =\n%s\nwant\n%s", got, want)
	}
}
