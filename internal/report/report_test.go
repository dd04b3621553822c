package report

import (
	"math"
	"strings"
	"testing"

	"resex/internal/stats"
)

func checkSVG(t *testing.T, svg string, wantBits ...string) {
	t.Helper()
	if !strings.HasPrefix(svg, "<svg ") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatalf("not a well-formed SVG document: %.60q...", svg)
	}
	for _, bit := range wantBits {
		if !strings.Contains(svg, bit) {
			t.Errorf("SVG missing %q", bit)
		}
	}
	// Balanced tags for the elements we emit.
	for _, tag := range []string{"<text", "<line", "<rect", "<polyline"} {
		open := strings.Count(svg, tag)
		if open == 0 && (tag == "<rect") {
			t.Errorf("no %s elements", tag)
		}
	}
}

func TestCanvasPrimitives(t *testing.T) {
	c := NewCanvas(100, 80)
	c.Line(0, 0, 10, 10, "#000", 1)
	c.Rect(5, 5, 10, -4, "#123") // negative height is normalized
	c.Polyline([][2]float64{{0, 0}, {1, 1}}, "#456", 2)
	c.Polyline(nil, "#456", 2) // no-op
	c.Text(1, 2, "a<b&c", 10, "start", "#000")
	c.TextRotated(3, 4, "rot", 9, -90)
	out := c.String()
	checkSVG(t, out, `height="4.0"`, "a&lt;b&amp;c", "rotate(-90")
}

func TestNiceTicks(t *testing.T) {
	ticks := niceTicks(0, 100, 6)
	if len(ticks) < 3 || len(ticks) > 14 {
		t.Errorf("ticks = %v", ticks)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("ticks not increasing: %v", ticks)
		}
	}
	if ticks[0] < 0 || ticks[len(ticks)-1] > 100.0001 {
		t.Errorf("ticks out of range: %v", ticks)
	}
	// Degenerate span.
	if got := niceTicks(5, 5, 4); len(got) == 0 {
		t.Error("degenerate span produced no ticks")
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{
		1500000: "1.5M",
		25000:   "25k",
		42:      "42",
		0.25:    "0.25",
	}
	for v, want := range cases {
		if got := formatTick(v); got != want {
			t.Errorf("formatTick(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestLineChart(t *testing.T) {
	a := stats.NewSeries("alpha")
	b := stats.NewSeries("beta")
	for i := 0; i < 50; i++ {
		a.Add(float64(i), 100+float64(i))
		b.Add(float64(i), 200)
	}
	svg := LineChart("title here", "x axis", "y axis", []*stats.Series{a, b})
	checkSVG(t, svg, "title here", "x axis", "y axis", "alpha", "beta", "<polyline")
	// Empty input still renders a frame.
	checkSVG(t, LineChart("empty", "x", "y", nil), "empty")
}

func TestStackedBarChart(t *testing.T) {
	svg := StackedBarChart("stacked", "µs", []string{"P", "C", "W"}, []StackedBar{
		{Label: "one", Segments: []float64{10, 20, 30}},
		{Label: "two", Segments: []float64{15, 20, 35}},
	})
	checkSVG(t, svg, "stacked", "one", "two", "P", "W")
}

func TestGroupedBarChart(t *testing.T) {
	svg := GroupedBarChart("grouped", "µs", []string{"g1", "g2"}, []string{"a", "b"},
		[][]float64{{1, 2}, {3, 4}})
	checkSVG(t, svg, "grouped", "g1", "g2")
}

func TestHistogramChart(t *testing.T) {
	h := stats.NewHistogram(0, 100, 20)
	for i := 0; i < 500; i++ {
		h.Add(float64(i % 100))
	}
	svg := HistogramChart("hist", "µs", []*stats.Histogram{h}, []string{"series"})
	checkSVG(t, svg, "hist", "series")
	// Empty histogram renders a frame.
	checkSVG(t, HistogramChart("e", "x", []*stats.Histogram{stats.NewHistogram(0, 1, 2)}, []string{"none"}), "e")
}

// TestResampleShortTimelineSpansAxis maps a timeline with fewer intervals
// than the 400-point plot budget onto the iteration axis: the cap line must
// still run to the last interval at the end of the axis.
func TestResampleShortTimelineSpansAxis(t *testing.T) {
	s := stats.NewSeries("cap")
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i))
	}
	out := resampleToIterations(s, 1000)
	last, ok := out.Last()
	if !ok || out.Len() != 100 {
		t.Fatalf("resampled to %d points, want 100", out.Len())
	}
	if math.Abs(last.X-990) > 1e-9 || last.Y != 99 {
		t.Errorf("last point (%g, %g), want (990, 99)", last.X, last.Y)
	}
}

func TestRenderSVGUnknownType(t *testing.T) {
	if _, err := RenderSVG(nil); err == nil {
		t.Error("nil result accepted")
	}
}
