package dut

import (
	"fmt"
	"math"
	"sort"
)

// Wafer-scale process variation. The paper's §1 sample — "a statistically
// significant number of devices" — comes off wafers, and wafer-level
// variation is spatially structured, not i.i.d.: a radial component
// (center-to-edge processing gradients in etch, CMP and implant), a linear
// across-wafer gradient (beam tilt, chamber asymmetry), and local random
// mismatch on top. A WaferLot models exactly those three layers, giving
// lot screening realistic spatial clusters of fast/slow corners and rare
// edge-concentrated defects instead of a uniform shuffle.
//
// The generator is random access: Die(i) is a pure function of (seed,
// index) that only reads two read-only tables NewWaferLot builds once per
// lot — the grid rows carrying on-wafer cells (O(side), about
// √diesPerWafer entries) and each wafer's systematic-variation
// coefficients (O(wafers)). Locating a die is a binary search over those
// rows and drawing it a fixed handful of hashes, so a streaming pipeline
// can materialize dies in any order, in parallel, without holding O(lot)
// memory — the property `NewDieLot`'s sequential *rand.Rand walk cannot
// offer.

// DieSource is a random-access supply of dies for population screening.
// Implementations must be deterministic (Die(i) always describes the same
// silicon) and safe for concurrent Die calls, so a streaming pipeline can
// pull from any goroutine. Die IDs are unique within a source (WaferLot
// and NewDieLot number dies by index): a pipeline that looks dies up in a
// cache on its workers while inserting in lot order relies on no two dies
// sharing a key, which keeps its hit/miss counts deterministic.
type DieSource interface {
	// Len returns the population size.
	Len() int
	// Die materializes die i (0 ≤ i < Len). Callers own the result.
	Die(i int) *Die
}

// LotSlice adapts an in-memory die lot (e.g. NewDieLot's output) to the
// DieSource interface.
type LotSlice []*Die

// Len returns the lot size.
func (s LotSlice) Len() int { return len(s) }

// Die returns the i-th die of the slice.
func (s LotSlice) Die(i int) *Die { return s[i] }

// waferEdge is the normalized radius beyond which a grid cell falls off
// the (circular) wafer and is skipped when laying out dies.
const waferEdge = 1.0

// WaferLot is a lot of wafers with spatially structured process variation.
// It implements DieSource; dies are numbered wafer-major (die i lives on
// wafer i/perWafer at within-wafer position i%perWafer).
type WaferLot struct {
	seed     int64
	wafers   int
	perWafer int
	side     int           // die-grid side length per wafer
	rows     []waferRow    // grid rows carrying on-wafer cells, top to bottom
	params   []waferParams // systematic variation, by wafer index
}

// waferRow is one grid row's run of on-wafer cells: within-wafer die
// `first` sits in cell (x0, y) and the row's next dies follow at x0+1,
// x0+2, and so on.
type waferRow struct {
	first int
	x0, y int
}

// NewWaferLot builds a lot of `wafers` wafers carrying `diesPerWafer` dies
// each. The seed selects the lot; the same (seed, wafers, diesPerWafer)
// triple always describes the same silicon.
func NewWaferLot(seed int64, wafers, diesPerWafer int) (*WaferLot, error) {
	if wafers < 1 {
		return nil, fmt.Errorf("dut: wafer lot needs at least 1 wafer, got %d", wafers)
	}
	if diesPerWafer < 1 {
		return nil, fmt.Errorf("dut: wafer lot needs at least 1 die per wafer, got %d", diesPerWafer)
	}
	// Grid side: enough cells inside the inscribed circle to place all
	// dies. π/4 of a square grid's cells are inside the circle; pad a bit
	// and grow until the usable count suffices.
	side := int(math.Ceil(math.Sqrt(float64(diesPerWafer) / (math.Pi / 4))))
	if side < 1 {
		side = 1
	}
	rows, cells := waferLayout(side)
	for cells < diesPerWafer {
		side++
		rows, cells = waferLayout(side)
	}
	params := make([]waferParams, wafers)
	for w := range params {
		params[w] = newWaferParams(seed, w)
	}
	return &WaferLot{seed: seed, wafers: wafers, perWafer: diesPerWafer, side: side, rows: rows, params: params}, nil
}

// waferLayout lists the grid rows that carry on-wafer cells, in row-major
// order, and counts those cells. A row's on-wafer cells form one
// contiguous run: the disc is convex and every float operation in
// cellCenter and onWafer is monotone, so a row's run ends at its first
// off-wafer cell.
func waferLayout(side int) (rows []waferRow, cells int) {
	for y := 0; y < side; y++ {
		x := 0
		for x < side && !onWafer(side, x, y) {
			x++
		}
		x0 := x
		for x < side && onWafer(side, x, y) {
			x++
		}
		if x > x0 {
			rows = append(rows, waferRow{first: cells, x0: x0, y: y})
			cells += x - x0
		}
	}
	return rows, cells
}

// onWafer reports whether grid cell (x, y)'s center lies on the wafer.
func onWafer(side, x, y int) bool {
	cx, cy := cellCenter(side, x, y)
	return cx*cx+cy*cy <= waferEdge*waferEdge
}

// cellCenter maps grid cell (x, y) to normalized wafer coordinates in
// [-1, 1].
func cellCenter(side, x, y int) (cx, cy float64) {
	s := float64(side)
	return (float64(x)+0.5)/s*2 - 1, (float64(y)+0.5)/s*2 - 1
}

// Len returns the total die count of the lot.
func (l *WaferLot) Len() int { return l.wafers * l.perWafer }

// cellXY maps a within-wafer die index to its cell center. Dies fill the
// on-wafer cells in row-major order, so die j sits in the last row whose
// first die is at most j.
func (l *WaferLot) cellXY(j int) (float64, float64) {
	k := sort.Search(len(l.rows), func(k int) bool { return l.rows[k].first > j }) - 1
	r := l.rows[k]
	return cellCenter(l.side, r.x0+j-r.first, r.y)
}

// waferParams are one wafer's systematic-variation coefficients, drawn
// deterministically from the lot seed and wafer index.
type waferParams struct {
	gradCos   float64 // across-wafer gradient direction, as cos and sin
	gradSin   float64
	gradSpeed float64 // gradient strength on the speed axis
	radSpeed  float64 // radial (center-to-edge) strength on the speed axis
	radLeak   float64 // radial strength on the leakage axis
	offSpeed  float64 // wafer-to-wafer mean speed offset
	defect    float64 // wafer defectivity scale for weak cells
}

func newWaferParams(seed int64, wafer int) waferParams {
	h := hashChain(uint64(seed), uint64(wafer))
	u := func(salt uint64) float64 { return unit(hashChain(h, salt)) }
	gradAngle := u(1) * 2 * math.Pi
	return waferParams{
		gradCos:   math.Cos(gradAngle),
		gradSin:   math.Sin(gradAngle),
		gradSpeed: 0.4 + 0.4*u(2), // σ-units across the wafer diameter
		radSpeed:  0.5 + 0.5*u(3), // σ-units center→edge
		radLeak:   0.04 + 0.05*u(4),
		offSpeed:  (u(5) - 0.5) * 0.8,
		defect:    0.5 + u(6),
	}
}

// Die materializes die i: corner and within-corner spread follow the
// wafer's radial + gradient field plus local gaussian mismatch, and a
// small, edge-weighted fraction of dies carries a weak cell. Pure function
// of (seed, i); safe to call concurrently.
func (l *WaferLot) Die(i int) *Die {
	p := &l.params[i/l.perWafer]
	x, y := l.cellXY(i % l.perWafer)
	r2 := x*x + y*y

	h := hashChain(uint64(l.seed), uint64(i)+0x9e3779b97f4a7c15)
	n1, n2 := gauss2(hashChain(h, 11))
	n3, n4 := gauss2(hashChain(h, 12))

	// Speed score in σ-units: positive = fast silicon. The radial term
	// subtracts its mean over the wafer (≈ radSpeed/2) so the lot stays
	// centered; edges run slow, the gradient tilts one side fast.
	spatial := p.offSpeed - p.radSpeed*(r2-0.5) + p.gradSpeed*(x*p.gradCos+y*p.gradSin)/2
	score := spatial + n1

	var corner Corner
	switch {
	case score > 0.84: // ≈ 20% upper tail of a standard normal
		corner = CornerFast
	case score < -0.84:
		corner = CornerSlow
	default:
		corner = CornerTypical
	}

	d := NewDie(i, corner)
	// Within-corner spread: the residual of the score beyond the corner
	// threshold plus independent mismatch, scaled like NewDieLot's spread
	// so downstream physics sees familiar magnitudes.
	d.tdqOffsetNS += 0.35 * (0.6*score + 0.8*n2)
	d.speedFactor *= 1 - 0.02*(0.6*score+0.8*n3)
	d.leakageFactor *= 1 + p.radLeak*r2 + 0.05*n4

	// Edge-weighted defectivity: a weak cell shows up on a fraction of a
	// percent of center dies, several× that at the extreme edge.
	defectP := 0.002 * p.defect * (1 + 3*r2)
	hd := hashChain(h, 13)
	if unit(hd) < defectP {
		addr := uint32(hashChain(hd, 1))
		threshold := 1.45 + 0.35*unit(hashChain(hd, 2))
		WithWeakCell(addr, threshold)(d)
	}
	return d
}

// hashChain mixes a value into a running 64-bit hash (splitmix64
// finalizer) — the random-access substitute for a sequential rng.
func hashChain(h, v uint64) uint64 {
	z := h ^ (v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a hash word to a uniform float in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// gauss2 derives two independent standard-normal samples from one hash
// word via Box–Muller over two chained uniforms.
func gauss2(h uint64) (float64, float64) {
	u1 := unit(hashChain(h, 1))
	u2 := unit(hashChain(h, 2))
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	r := math.Sqrt(-2 * math.Log(u1))
	return r * math.Cos(2*math.Pi*u2), r * math.Sin(2*math.Pi*u2)
}
