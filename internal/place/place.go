// Package place implements the constructive common-centroid placement
// styles of the paper (Sec. IV-A): the new spiral placement, the
// chessboard placement of Burcea et al. [7], the new block-chessboard
// (BC) family, and a simplified simulated-annealing baseline standing
// in for the stochastic generator of Lin et al. [1].
package place

import (
	"fmt"
	"math"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/fault"
	"ccdac/internal/geom"
)

// Style selects a placement algorithm.
type Style int

const (
	// Spiral is the paper's new low-via placement (Sec. IV-A).
	Spiral Style = iota
	// Chessboard is the maximum-dispersion placement of [7].
	Chessboard
	// BlockChessboard is the paper's dispersion/via tradeoff family.
	BlockChessboard
	// Annealed is the simulated-annealing baseline standing in for [1].
	Annealed
)

func (s Style) String() string {
	switch s {
	case Spiral:
		return "spiral"
	case Chessboard:
		return "chessboard"
	case BlockChessboard:
		return "block-chessboard"
	case Annealed:
		return "annealed"
	}
	return fmt.Sprintf("style(%d)", int(s))
}

// ParseStyle is the inverse of Style.String, so the style names live
// in one table.
func ParseStyle(name string) (Style, error) {
	for s := Spiral; s <= Annealed; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown placement style %q", name)
}

// MinBits and MaxBits bound the supported DAC resolutions. The lower
// bound keeps the capacitor list non-degenerate; the upper bound keeps
// the O(4^N) covariance evaluation tractable.
const (
	MinBits = 2
	MaxBits = 12
)

// ArraySize computes the common-centroid array dimensions per Eq. 17:
// r = ceil(sqrt(2^N)), s = ceil(2^N / r), with D_C = r*s - 2^N dummy
// cells. For even N this gives a dummy-free 2^(N/2) square.
func ArraySize(bits int) (rows, cols, dummies int) {
	total := ccmatrix.TotalUnits(bits)
	rows = int(math.Ceil(math.Sqrt(float64(total))))
	cols = (total + rows - 1) / rows // ceil(total/rows)
	dummies = rows*cols - total
	return rows, cols, dummies
}

func checkBits(bits int) error {
	if err := fault.Check(fault.StagePlace); err != nil {
		return fmt.Errorf("place: %w", err)
	}
	if bits < MinBits || bits > MaxBits {
		return fmt.Errorf("place: bits %d outside supported range %d..%d", bits, MinBits, MaxBits)
	}
	return nil
}

// centerPair returns the two mutually-reflected cells nearest the array
// center used for C_1 and C_0, or ok=false when the array has a single
// self-reflective center cell (odd rows and odd cols).
func centerPair(rows, cols int) (a, b geom.Cell, ok bool) {
	if rows%2 == 1 && cols%2 == 1 {
		return geom.Cell{}, geom.Cell{}, false
	}
	// With at least one even dimension, the cell at (rows/2, cols/2)
	// and its reflection are distinct cells hugging the center.
	a = geom.Cell{Row: rows / 2, Col: cols / 2}
	b = a.Reflect(rows, cols)
	return a, b, true
}

// spiralOrder enumerates every cell of a rows×cols grid in an outward
// square spiral from the center. Cells of the (possibly rectangular)
// grid are emitted exactly once; spiral arms that leave the grid are
// clipped.
func spiralOrder(rows, cols int) []geom.Cell {
	total := rows * cols
	out := make([]geom.Cell, 0, total)
	seen := make([]bool, total)
	emit := func(c geom.Cell) {
		if c.In(rows, cols) && !seen[c.Row*cols+c.Col] {
			seen[c.Row*cols+c.Col] = true
			out = append(out, c)
		}
	}
	// Start at the cell at/just above-right of the geometric center so
	// the first ring hugs the common-centroid point.
	cur := geom.Cell{Row: rows / 2, Col: cols / 2}
	emit(cur)
	// Directions W, S, E, N with the classic 1,1,2,2,3,3,... arm lengths.
	dirs := [4][2]int{{0, -1}, {-1, 0}, {0, 1}, {1, 0}}
	arm := 1
	for d := 0; len(out) < total; d = (d + 1) % 4 {
		for step := 0; step < arm; step++ {
			cur = cur.Add(dirs[d][0], dirs[d][1])
			emit(cur)
		}
		if d%2 == 1 {
			arm++
		}
		if arm > 4*(rows+cols) {
			// Defensive: cannot happen for positive dims, but guarantees
			// termination if the invariants are ever violated.
			panic("place: spiral failed to cover grid")
		}
	}
	return out
}

// NewSpiral builds the paper's spiral placement: C_0 and C_1 sit
// diagonally opposite at the center; C_2..C_N are placed outward along
// a spiral, each unit cell mirrored to its point reflection to keep the
// common-centroid property; dummies (odd N) end up on the outermost
// ring.
func NewSpiral(bits int) (*ccmatrix.Matrix, error) {
	if err := checkBits(bits); err != nil {
		return nil, err
	}
	rows, cols, _ := ArraySize(bits)
	m := ccmatrix.New(rows, cols, bits, 1)
	order := spiralOrder(rows, cols)

	if a, b, ok := centerPair(rows, cols); ok {
		m.Set(a, 1)
		m.Set(b, 0)
	} else {
		// Odd-odd grid (e.g. 23x23 for 9 bits): the self-reflective
		// center cell becomes a dummy so C_1/C_0 and every later
		// capacitor can stay in exact reflection pairs; C_1 and C_0
		// take the first spiral pair hugging the center.
		center := geom.Cell{Row: rows / 2, Col: cols / 2}
		m.Set(center, ccmatrix.Dummy)
		for _, c := range order {
			r := c.Reflect(rows, cols)
			if m.IsEmpty(c) && m.IsEmpty(r) && c != r {
				m.Set(c, 1)
				m.Set(r, 0)
				break
			}
		}
	}

	counts := ccmatrix.UnitCounts(bits)
	bit := 2
	need := counts[bit]
	for _, c := range order {
		if bit > bits {
			break
		}
		if !m.IsEmpty(c) {
			continue
		}
		r := c.Reflect(rows, cols)
		if r == c || !m.IsEmpty(r) {
			continue
		}
		m.Set(c, bit)
		m.Set(r, bit)
		need -= 2
		for bit <= bits && need <= 0 {
			bit++
			if bit <= bits {
				need = counts[bit]
			}
		}
	}
	// Remaining cells (odd N) are dummies on the periphery.
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cell := geom.Cell{Row: r, Col: c}
			if m.IsEmpty(cell) {
				m.Set(cell, ccmatrix.Dummy)
			}
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("place: spiral %d-bit: %w", bits, err)
	}
	return m, nil
}
