package stats

import (
	"fmt"
	"math"
	"strings"
)

// Curve is a learning-curve series: a value (e.g. policy precision) sampled
// at successive iterations. It reproduces the shape reported in Figure 4 of
// the paper and answers "after how many iterations did the curve converge?".
type Curve struct {
	// X holds the iteration numbers (1-based in the paper's plot).
	X []int
	// Y holds the measured values at each iteration, typically in [0,1].
	Y []float64
}

// Append records one (iteration, value) point.
func (c *Curve) Append(x int, y float64) {
	c.X = append(c.X, x)
	c.Y = append(c.Y, y)
}

// ConvergedAt returns the first iteration from which the value stays at or
// above the threshold for the rest of the series (the paper's "converging
// condition"). It returns 0 and false when the series never converges.
func (c *Curve) ConvergedAt(threshold float64) (iteration int, ok bool) {
	// Scan from the end to find the last index below threshold.
	last := -1
	for i := len(c.Y) - 1; i >= 0; i-- {
		if c.Y[i] < threshold {
			last = i
			break
		}
	}
	switch {
	case len(c.Y) == 0:
		return 0, false
	case last == len(c.Y)-1:
		return 0, false
	case last < 0:
		return c.X[0], true
	default:
		return c.X[last+1], true
	}
}

// Smoothed returns a copy of the curve with a centered moving average of
// the given window applied to Y (window is clamped to be odd and >= 1).
func (c *Curve) Smoothed(window int) *Curve {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	out := &Curve{X: append([]int(nil), c.X...), Y: make([]float64, len(c.Y))}
	for i := range c.Y {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(c.Y) {
			hi = len(c.Y) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += c.Y[j]
		}
		out.Y[i] = sum / float64(hi-lo+1)
	}
	return out
}

// ASCIIPlot renders the curve as a fixed-size ASCII chart for terminal
// output (cmd/coreda-bench uses it to "draw" Figure 4).
func (c *Curve) ASCIIPlot(width, height int) string {
	if len(c.Y) == 0 || width < 2 || height < 2 {
		return "(empty curve)\n"
	}
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, y := range c.Y {
		minY = math.Min(minY, y)
		maxY = math.Max(maxY, y)
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	n := len(c.Y)
	for col := 0; col < width; col++ {
		idx := col * (n - 1) / max(width-1, 1)
		y := c.Y[idx]
		row := int(math.Round((maxY - y) / (maxY - minY) * float64(height-1)))
		if row < 0 {
			row = 0
		}
		if row >= height {
			row = height - 1
		}
		grid[row][col] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%6.2f +%s\n", maxY, strings.Repeat("-", width))
	for _, row := range grid {
		fmt.Fprintf(&b, "       |%s\n", string(row))
	}
	fmt.Fprintf(&b, "%6.2f +%s\n", minY, strings.Repeat("-", width))
	fmt.Fprintf(&b, "        x: %d .. %d (%d points)\n", c.X[0], c.X[len(c.X)-1], len(c.X))
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
