package linalg

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	r, c := m.Dims()
	if r != 2 || c != 3 {
		t.Fatalf("Dims = %d,%d", r, c)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At failed")
	}
	if m.At(0, 0) != 0 {
		t.Error("zero init failed")
	}
}

func TestNewDenseFrom(t *testing.T) {
	m, err := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Error("NewDenseFrom layout wrong")
	}
	if _, err := NewDenseFrom([][]float64{{1}, {2, 3}}); err == nil {
		t.Error("want error for ragged rows")
	}
	if _, err := NewDenseFrom(nil); err == nil {
		t.Error("want error for empty input")
	}
}

func TestDenseSymmetry(t *testing.T) {
	m, _ := NewDenseFrom([][]float64{{0, 1}, {1, 0}})
	if !m.IsSymmetric(0) {
		t.Error("symmetric matrix not detected")
	}
	m.Set(0, 1, 2)
	if m.IsSymmetric(0) {
		t.Error("asymmetric matrix reported symmetric")
	}
	rect := NewDense(2, 3)
	if rect.IsSymmetric(0) {
		t.Error("rectangular matrix cannot be symmetric")
	}
}

func TestDenseFrobenius(t *testing.T) {
	m, _ := NewDenseFrom([][]float64{{3, 0}, {0, 4}})
	if m.Frobenius() != 5 {
		t.Errorf("Frobenius = %v", m.Frobenius())
	}
}

func TestCSRBuildAndAt(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(1, 2, 1)
	b.Add(2, 1, 1)
	m := b.Build()
	if nnz := len(m.ColIdx()); nnz != 4 {
		t.Fatalf("nonzeros = %d", nnz)
	}
	if m.At(1, 0) != 1 || m.At(1, 2) != 1 || m.At(1, 1) != 0 {
		t.Error("At values wrong")
	}
	if m.RowNNZ(1) != 2 || m.RowNNZ(0) != 1 {
		t.Error("RowNNZ wrong")
	}
	if !m.IsSymmetric(0) {
		t.Error("ring topology must be symmetric")
	}
}

func TestCSRDuplicatesSummedZerosDropped(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(1, 1, 5)
	b.Add(1, 1, -5)
	m := b.Build()
	if m.At(0, 0) != 3 {
		t.Errorf("duplicate sum = %v", m.At(0, 0))
	}
	if nnz := len(m.ColIdx()); nnz != 1 {
		t.Errorf("nonzeros = %d, want cancelled entry dropped", nnz)
	}
}

func TestCSREmptyRows(t *testing.T) {
	b := NewBuilder(4, 4)
	b.Add(2, 3, 7)
	m := b.Build()
	for _, i := range []int{0, 1, 3} {
		if m.RowNNZ(i) != 0 {
			t.Errorf("row %d should be empty", i)
		}
	}
	if m.At(2, 3) != 7 {
		t.Error("lone entry lost")
	}
}

// TestCSRBuildMatchesDense assembles random triplets, duplicates
// included, into a CSR matrix and a dense one: every element agrees
// exactly, since both sum duplicates in insertion order.
func TestCSRBuildMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 2 + r.Intn(20)
		b := NewBuilder(n, n)
		d := NewDense(n, n)
		for k := 0; k < 3*n; k++ {
			i, j, v := r.Intn(n), r.Intn(n), r.Uniform(-2, 2)
			b.Add(i, j, v)
			d.Set(i, j, d.At(i, j)+v)
		}
		m := b.Build()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.At(i, j) != d.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSRNeighbors(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 1, 1)
	b.Add(0, 2, 1)
	b.Add(2, 0, 1)
	m := b.Build()
	nb := m.Neighbors()
	if len(nb[0]) != 2 || nb[0][0] != 1 || nb[0][1] != 2 {
		t.Errorf("neighbors[0] = %v", nb[0])
	}
	if len(nb[1]) != 0 {
		t.Errorf("neighbors[1] = %v", nb[1])
	}
}

func TestBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Add")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}
