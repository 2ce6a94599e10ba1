package ir

import "fmt"

// Expr is a tiny rank-aware arithmetic expression used for costs, trip
// counts, message sizes, and branch conditions. It is deliberately not a
// general AST: the handful of forms below cover every pattern in the
// paper's workloads (strong-scaling work division, per-rank load imbalance,
// rank-linear skew) while remaining serializable through the DSL.
//
// Value(rank, nranks) =
//
//	(Base + Slope*rank) * scaling(nranks) * perRankFactor(rank) + perRankAdd(rank)
//
// where scaling(nranks) is 1, 1/nranks, or 1/sqrt(nranks) depending on
// Scaling, and the per-rank maps default to 1 and 0.
type Expr struct {
	Base  float64
	Slope float64 // added per rank index: Base + Slope*rank

	// Scaling divides the base term by a function of the communicator size,
	// modeling strong-scaling work division.
	Scaling ScalingKind

	// Factor multiplies the value for specific ranks (load imbalance).
	Factor map[int]float64
	// Add is added for specific ranks after scaling.
	Add map[int]float64

	// FactorLowRanks multiplies the value for ranks < FactorLowCount.
	// Convenient shorthand for "the first k ranks are overloaded", the shape
	// of the LAMMPS case study (processes 0, 1 and 2 run longer).
	FactorLowRanks float64
	FactorLowCount int
}

// ScalingKind selects how an Expr shrinks as the communicator grows.
type ScalingKind int

// Scaling kinds.
const (
	ScaleNone    ScalingKind = iota // constant regardless of nranks
	ScaleInvP                       // divided by nranks (perfect strong scaling)
	ScaleInvSqrt                    // divided by sqrt(nranks) (surface terms)
	ScaleLogP                       // multiplied by log2(nranks) (tree collectives)
)

// Const returns an expression with a constant value.
func Const(v float64) Expr { return Expr{Base: v} }

// Value evaluates the expression for a rank in a communicator of nranks.
func (e Expr) Value(rank, nranks int) float64 {
	v := e.Base + e.Slope*float64(rank)
	switch e.Scaling {
	case ScaleInvP:
		if nranks > 0 {
			v /= float64(nranks)
		}
	case ScaleInvSqrt:
		if nranks > 0 {
			v /= sqrtf(float64(nranks))
		}
	case ScaleLogP:
		v *= log2f(float64(nranks))
	}
	if e.FactorLowRanks != 0 && rank < e.FactorLowCount {
		v *= e.FactorLowRanks
	}
	// Most expressions carry no per-rank terms; skip the map lookups.
	if len(e.Factor) > 0 {
		if f, ok := e.Factor[rank]; ok {
			v *= f
		}
	}
	if len(e.Add) > 0 {
		if a, ok := e.Add[rank]; ok {
			v += a
		}
	}
	return v
}

// IsZero reports whether the expression is identically zero.
func (e Expr) IsZero() bool {
	return e.Base == 0 && e.Slope == 0 && len(e.Factor) == 0 &&
		len(e.Add) == 0 && e.FactorLowRanks == 0
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations; avoids importing math for one call site and keeps
	// the expression evaluator allocation-free.
	z := x
	for i := 0; i < 24; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func log2f(x float64) float64 {
	if x <= 1 {
		return 1
	}
	n := 0.0
	for x >= 2 {
		x /= 2
		n++
	}
	return n + (x - 1) // linear interpolation on the fractional part
}

// Peer designates the remote rank of a point-to-point operation.
type Peer struct {
	Kind PeerKind
	Arg  int // stride, mask, or constant rank depending on Kind
}

// PeerKind enumerates peer-selection patterns.
type PeerKind int

// Peer kinds.
const (
	PeerNone   PeerKind = iota
	PeerRight           // (rank + Arg) mod nranks; Arg defaults to 1
	PeerLeft            // (rank - Arg + nranks) mod nranks
	PeerConst           // fixed rank Arg
	PeerXor             // rank XOR Arg (hypercube patterns, e.g. CG/FT)
	PeerHalo2D          // neighbor in a sqrt(P) x sqrt(P) grid; Arg: 0=+x 1=-x 2=+y 3=-y
	PeerAny             // wildcard source (MPI_ANY_SOURCE); receive-only
)

// Resolve returns the peer rank for the given local rank, or -1 when the
// pattern yields no partner (e.g. a halo neighbor off the grid edge in a
// non-periodic dimension — we use periodic grids, so this only happens for
// PeerNone or an invalid configuration).
func (p Peer) Resolve(rank, nranks int) int {
	if nranks <= 0 {
		return -1
	}
	switch p.Kind {
	case PeerRight:
		s := p.Arg
		if s == 0 {
			s = 1
		}
		return ((rank+s)%nranks + nranks) % nranks
	case PeerLeft:
		s := p.Arg
		if s == 0 {
			s = 1
		}
		return ((rank-s)%nranks + nranks) % nranks
	case PeerConst:
		if p.Arg < 0 || p.Arg >= nranks {
			return -1
		}
		return p.Arg
	case PeerXor:
		q := rank ^ p.Arg
		if q < 0 || q >= nranks {
			return -1
		}
		return q
	case PeerHalo2D:
		// Torus neighbors realized with ring arithmetic (+/-1 in x, +/-side
		// in y, all mod nranks). Unlike row-major grid wrapping, this stays
		// SYMMETRIC for every communicator size — rank a's +x neighbor
		// always has a as its -x neighbor — so halo exchanges match cleanly
		// even when nranks is not a perfect square.
		side := intSqrt(nranks)
		if side == 0 {
			return -1
		}
		var d int
		switch p.Arg {
		case 0:
			d = 1
		case 1:
			d = -1
		case 2:
			d = side
		case 3:
			d = -side
		default:
			return -1
		}
		return ((rank+d)%nranks + nranks) % nranks
	case PeerAny:
		// A wildcard source has no single partner; the simulator matches it
		// against whichever send arrives, and static analyses treat it as
		// "any rank". Resolve reports no fixed peer.
		return -1
	default:
		return -1
	}
}

// Symmetric returns the inverse peer pattern: the pattern under which the
// rank that targets us is reached, so the receive half of an MPI_Sendrecv
// comes from p.Symmetric(). Right and Left invert each other, the four
// halo2d directions pair up (+x/-x, +y/-y), and Const and Xor are their
// own inverse. An out-of-range halo2d direction is kept; it resolves to no
// peer either way.
func (p Peer) Symmetric() Peer {
	switch p.Kind {
	case PeerRight:
		return Peer{Kind: PeerLeft, Arg: p.Arg}
	case PeerLeft:
		return Peer{Kind: PeerRight, Arg: p.Arg}
	case PeerHalo2D:
		if p.Arg >= 0 && p.Arg < 4 {
			return Peer{Kind: PeerHalo2D, Arg: p.Arg ^ 1} // 0 <-> 1, 2 <-> 3
		}
	}
	return p
}

// String renders the peer pattern for reports and the DSL.
func (p Peer) String() string {
	switch p.Kind {
	case PeerRight:
		return fmt.Sprintf("right+%d", max1(p.Arg))
	case PeerLeft:
		return fmt.Sprintf("left+%d", max1(p.Arg))
	case PeerConst:
		return fmt.Sprintf("rank%d", p.Arg)
	case PeerXor:
		return fmt.Sprintf("xor%d", p.Arg)
	case PeerHalo2D:
		return fmt.Sprintf("halo2d:%d", p.Arg)
	case PeerAny:
		return "any"
	default:
		return "none"
	}
}

func max1(x int) int {
	if x == 0 {
		return 1
	}
	return x
}

func intSqrt(n int) int {
	if n <= 0 {
		return 0
	}
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
