// Package topology builds the topology matrices T_ij of the physical
// oscillator model. T_ij = 1 when oscillator (MPI process) i depends on j
// through communication, 0 otherwise (paper Eq. 2 and Fig. 2). The package
// also computes the coupling strength
//
//	v_p = β·κ / (t_comp + t_comm)
//
// where β encodes the message protocol (eager β=1, rendezvous β=2) and κ
// aggregates the communication distances: the sum over all distances, or —
// when all outstanding non-blocking requests are grouped in one
// MPI_Waitall — the longest distance only (paper §3.1, citing the idle
// wave analysis of Afzal et al. 2021).
package topology

import (
	"fmt"
	"sort"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// Protocol selects the MPI point-to-point transfer protocol, which sets the
// β factor of the coupling strength.
type Protocol int

const (
	// Eager sends the payload immediately (small messages); β = 1.
	Eager Protocol = iota
	// Rendezvous requires a handshake with the posted receive (large
	// messages); β = 2.
	Rendezvous
)

// Beta returns the protocol factor β of the coupling strength.
func (p Protocol) Beta() float64 {
	if p == Rendezvous {
		return 2
	}
	return 1
}

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == Rendezvous {
		return "rendezvous"
	}
	return "eager"
}

// WaitMode describes how a rank waits for its outstanding non-blocking
// requests; it selects the κ aggregation rule.
type WaitMode int

const (
	// SeparateWaits issues one MPI_Wait per request: κ = Σ|d|.
	SeparateWaits WaitMode = iota
	// GroupedWaitall groups all requests in one MPI_Waitall: κ = max|d|.
	GroupedWaitall
)

// String implements fmt.Stringer.
func (w WaitMode) String() string {
	if w == GroupedWaitall {
		return "grouped-waitall"
	}
	return "separate-waits"
}

// Topology is a communication topology: the sparse 0/1 matrix T plus the
// stencil metadata needed for the κ rule.
type Topology struct {
	// N is the number of oscillators (MPI processes).
	N int
	// T is the N×N sparse topology matrix.
	T *linalg.CSR
	// Offsets holds the signed communication distances of a stencil
	// topology (empty for irregular topologies).
	Offsets []int
	// Periodic records whether the stencil wraps around (ring) or is an
	// open chain with truncated boundaries.
	Periodic bool
	// Label is a short human-readable description.
	Label string

	// flat holds the packed CSR neighbor arrays, precomputed by the
	// package constructors so Flat() is read-only (safe for concurrent
	// model building over one shared Topology).
	flat FlatNeighbors
}

// Stencil builds the topology in which rank i communicates with ranks
// i+d for each signed offset d (the paper's d = ±1 and d = ±1,−2
// patterns). With periodic = true indices wrap (ring); otherwise
// out-of-range partners are dropped (open chain, the usual MPI boundary).
// Duplicate and zero offsets are rejected.
func Stencil(n int, offsets []int, periodic bool) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: need at least 2 ranks, got %d", n)
	}
	if len(offsets) == 0 {
		return nil, fmt.Errorf("topology: empty stencil")
	}
	seen := make(map[int]bool, len(offsets))
	for _, d := range offsets {
		if d == 0 {
			return nil, fmt.Errorf("topology: zero offset (self-communication)")
		}
		if seen[d] {
			return nil, fmt.Errorf("topology: duplicate offset %d", d)
		}
		if d <= -n || d >= n {
			return nil, fmt.Errorf("topology: offset %d out of range for n=%d", d, n)
		}
		seen[d] = true
	}
	b := linalg.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for _, d := range offsets {
			j := i + d
			if periodic {
				j = ((j % n) + n) % n
				if j == i {
					continue
				}
			} else if j < 0 || j >= n {
				continue
			}
			b.Add(i, j, 1)
		}
	}
	sorted := append([]int(nil), offsets...)
	sort.Ints(sorted)
	m := b.Build()
	return &Topology{
		N: n, T: m, Offsets: sorted, Periodic: periodic,
		Label: fmt.Sprintf("stencil%v periodic=%v", sorted, periodic),
		flat:  buildFlat(m),
	}, nil
}

// NextNeighbor returns the d = ±1 topology of the paper's Fig. 2 top row.
func NextNeighbor(n int, periodic bool) (*Topology, error) {
	return Stencil(n, []int{-1, 1}, periodic)
}

// NextPlusNextNext returns the d = ±1, −2 topology of Fig. 2 bottom row.
func NextPlusNextNext(n int, periodic bool) (*Topology, error) {
	return Stencil(n, []int{-2, -1, 1}, periodic)
}

// AllToAll returns the full connectivity of the plain Kuramoto model — the
// pattern the paper rejects for parallel programs because it acts like a
// per-period synchronizing barrier.
func AllToAll(n int) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: need at least 2 ranks, got %d", n)
	}
	b := linalg.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.Add(i, j, 1)
			}
		}
	}
	m := b.Build()
	return &Topology{N: n, T: m, Label: "all-to-all", flat: buildFlat(m)}, nil
}

// Torus2D returns a 2-D periodic Cartesian topology (nx×ny ranks, 4-point
// stencil) as used by domain-decomposed halo exchanges.
func Torus2D(nx, ny int) (*Topology, error) {
	return Torus2DRadius(nx, ny, 1)
}

// Torus2DRadius generalizes Torus2D to a von Neumann neighborhood of the
// given coupling radius: rank (x, y) communicates with every distinct
// rank within Manhattan distance ≤ radius on the periodic nx×ny torus
// (radius 1 is the classic 4-point halo stencil, radius 2 adds the
// 8 next-nearest partners, …). On small tori several lattice offsets can
// wrap onto the same rank; duplicates collapse to a single edge so T
// stays a 0/1 matrix. (Normalization note: on a 2-wide torus the two
// wrapped directions reach the same rank, which the pre-radius Torus2D
// summed into a weight-2 entry; it is now one unit edge. The POM
// right-hand side walks neighbor indices and never read the weight, so
// model dynamics are unchanged — only weight-reading consumers such as
// the linstab Jacobian see the normalized value.)
func Torus2DRadius(nx, ny, radius int) (*Topology, error) {
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("topology: Torus2D needs nx, ny >= 2")
	}
	if radius < 1 {
		return nil, fmt.Errorf("topology: Torus2D coupling radius must be >= 1, got %d", radius)
	}
	if radius >= nx+ny {
		return nil, fmt.Errorf("topology: Torus2D coupling radius %d exceeds the %dx%d torus", radius, nx, ny)
	}
	n := nx * ny
	b := linalg.NewBuilder(n, n)
	// A radius past nx or ny reaches offsets below −nx or −ny, so the
	// wrap is a true modulo, not a single +n shift.
	id := func(x, y int) int { return ((y%ny+ny)%ny)*nx + (x%nx+nx)%nx }
	seen := make([]int, n) // seen[j] == i+1 marks edge i→j already added
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := id(x, y)
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					d := abs(dx) + abs(dy)
					if d == 0 || d > radius {
						continue
					}
					nb := id(x+dx, y+dy)
					if nb == i || seen[nb] == i+1 {
						continue
					}
					seen[nb] = i + 1
					b.Add(i, nb, 1)
				}
			}
		}
	}
	m := b.Build()
	label := fmt.Sprintf("torus %dx%d", nx, ny)
	if radius > 1 {
		label = fmt.Sprintf("torus %dx%d r=%d", nx, ny, radius)
	}
	return &Topology{N: n, T: m, Periodic: true, Label: label, flat: buildFlat(m)}, nil
}

// Random returns a symmetric Erdős–Rényi topology where each unordered
// pair is connected with probability p, using the supplied deterministic
// generator. Isolated ranks are permitted (they model free processes).
func Random(n int, p float64, rng *stats.RNG) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: need at least 2 ranks, got %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("topology: probability %v out of [0,1]", p)
	}
	b := linalg.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.Add(i, j, 1)
				b.Add(j, i, 1)
			}
		}
	}
	m := b.Build()
	return &Topology{N: n, T: m, Label: fmt.Sprintf("random(p=%g)", p), flat: buildFlat(m)}, nil
}

// Kappa returns the κ distance aggregate for the given wait mode. For
// stencil topologies it follows the paper's rule (Σ|d| or max|d|); for
// irregular topologies it falls back to the mean degree under
// SeparateWaits and 1 under GroupedWaitall, the nearest analogue of
// "distance" for unlabeled graphs.
func (tp *Topology) Kappa(mode WaitMode) float64 {
	if len(tp.Offsets) > 0 {
		switch mode {
		case GroupedWaitall:
			m := 0
			for _, d := range tp.Offsets {
				if a := abs(d); a > m {
					m = a
				}
			}
			return float64(m)
		default:
			s := 0
			for _, d := range tp.Offsets {
				s += abs(d)
			}
			return float64(s)
		}
	}
	if mode == GroupedWaitall {
		return 1
	}
	total := 0
	for i := 0; i < tp.N; i++ {
		total += tp.T.RowNNZ(i)
	}
	return float64(total) / float64(tp.N)
}

// Coupling returns the coupling strength v_p = β·κ/(tComp+tComm) of
// Eq. (2).
func (tp *Topology) Coupling(proto Protocol, mode WaitMode, tComp, tComm float64) float64 {
	period := tComp + tComm
	if period <= 0 {
		panic("topology: Coupling needs tComp + tComm > 0")
	}
	return proto.Beta() * tp.Kappa(mode) / period
}

// Neighbors returns every rank's partner list.
func (tp *Topology) Neighbors() [][]int { return tp.T.Neighbors() }

// FlatNeighbors is the flat CSR neighbor representation: rank i's partners
// are Cols[RowPtr[i]:RowPtr[i+1]]. Compared to [][]int it stores all
// partner lists in one packed array, so hot loops walk two contiguous
// int32 slices instead of chasing a pointer per rank — the layout the
// oscillator model's right-hand side iterates.
type FlatNeighbors struct {
	// RowPtr has length N+1; RowPtr[0] == 0 and RowPtr[N] == len(Cols).
	RowPtr []int32
	// Cols holds the packed partner indices, row-major, sorted within
	// each row.
	Cols []int32
}

// Flat returns the packed CSR neighbor representation of the topology.
// Constructor-built topologies carry it precomputed; for hand-assembled
// Topology values it is derived on the fly without mutating the receiver,
// so concurrent use of a shared *Topology stays race-free. Callers must
// treat the result as read-only.
func (tp *Topology) Flat() FlatNeighbors {
	if tp.flat.RowPtr != nil {
		return tp.flat
	}
	return buildFlat(tp.T)
}

// buildFlat packs a CSR topology matrix into int32 neighbor arrays.
func buildFlat(t *linalg.CSR) FlatNeighbors {
	rowPtr := t.RowPtr()
	colIdx := t.ColIdx()
	f := FlatNeighbors{
		RowPtr: make([]int32, len(rowPtr)),
		Cols:   make([]int32, len(colIdx)),
	}
	for i, p := range rowPtr {
		f.RowPtr[i] = int32(p)
	}
	for k, j := range colIdx {
		f.Cols[k] = int32(j)
	}
	return f
}

// IsSymmetric reports whether the dependency graph is symmetric
// (every send matched by a reverse dependency).
func (tp *Topology) IsSymmetric() bool { return tp.T.IsSymmetric(0) }

// WaveSpeeds predicts the idle-wave propagation speed of a blocking
// bulk-synchronous program on a stencil topology, in ranks per iteration,
// separately toward higher ranks (up) and lower ranks (down) — the
// simplified form of the analytic idle-wave model of Afzal et al. 2021
// that the paper's coupling strength is motivated by.
//
// Receive dependencies stall rank o−d one iteration after rank o for each
// stencil offset d, so the eager-protocol wave moves at max(−d) upward and
// max(d) downward per iteration. Under the rendezvous protocol the
// blocked handshake also stalls the ranks *sending* to the delayed rank,
// adding the mirrored offsets (the β = 2 effect).
func (tp *Topology) WaveSpeeds(proto Protocol) (up, down float64) {
	for _, d := range tp.Offsets {
		if d < 0 && float64(-d) > up {
			up = float64(-d)
		}
		if d > 0 && float64(d) > down {
			down = float64(d)
		}
		if proto == Rendezvous {
			if d > 0 && float64(d) > up {
				up = float64(d)
			}
			if d < 0 && float64(-d) > down {
				down = float64(-d)
			}
		}
	}
	return up, down
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
