package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("zero Summary should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Errorf("Count = %d", s.Count())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if !almostEq(s.StdDev(), 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", s.StdDev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if !almostEq(s.Sum(), 40, 1e-9) {
		t.Errorf("Sum = %v, want 40", s.Sum())
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Errorf("String = %q", s.String())
	}
	s.Reset()
	if s.Count() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestSummaryAddN(t *testing.T) {
	var a, b Summary
	a.AddN(3, 5)
	for i := 0; i < 5; i++ {
		b.Add(3)
	}
	if a.Count() != b.Count() || a.Mean() != b.Mean() {
		t.Error("AddN differs from repeated Add")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			out := in[:0]
			for _, v := range in {
				if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
					out = append(out, v)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, all Summary
		for _, x := range xs {
			a.Add(x)
			all.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
			all.Add(y)
		}
		a.Merge(&b)
		return a.Count() == all.Count() &&
			almostEq(a.Mean(), all.Mean(), 1e-6+math.Abs(all.Mean())*1e-9) &&
			almostEq(a.Variance(), all.Variance(), 1e-4+all.Variance()*1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	var a, b Summary
	a.Add(1)
	a.Merge(&b) // merging empty is a no-op
	if a.Count() != 1 {
		t.Error("merge with empty changed count")
	}
	var c Summary
	c.Merge(&a) // merging into empty copies
	if c.Count() != 1 || c.Mean() != 1 {
		t.Error("merge into empty did not copy")
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.Count() != 100 {
		t.Fatalf("Count = %d", s.Count())
	}
	if got := s.Quantile(0.5); !almostEq(got, 50.5, 1e-9) {
		t.Errorf("median = %v, want 50.5", got)
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Quantile(0.99); !almostEq(got, 99.01, 1e-9) {
		t.Errorf("p99 = %v, want 99.01", got)
	}
	if got := s.Quantile(-1); got != 1 {
		t.Errorf("Quantile(-1) = %v, want min", got)
	}
	if got := s.Quantile(2); got != 100 {
		t.Errorf("Quantile(2) = %v, want max", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(4)
	if s.Mean() != 0 || s.StdDev() != 0 || s.Quantile(0.5) != 0 {
		t.Error("empty sample should report zeros")
	}
}

func TestSampleMeanStdMatchesSummary(t *testing.T) {
	f := func(xs []float64) bool {
		s := NewSample(len(xs))
		var sum Summary
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			s.Add(x)
			sum.Add(x)
		}
		if s.Count() == 0 {
			return true
		}
		return almostEq(s.Mean(), sum.Mean(), 1e-6+math.Abs(sum.Mean())*1e-9) &&
			almostEq(s.StdDev(), sum.StdDev(), 1e-4+sum.StdDev()*1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleSummaryConversion(t *testing.T) {
	s := NewSample(0)
	for _, x := range []float64{1, 2, 3} {
		s.Add(x)
	}
	sum := s.Summary()
	if sum.Count() != 3 || sum.Mean() != 2 {
		t.Errorf("Summary conversion: %v", sum)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	h.Add(-5)
	h.Add(150)
	h.Add(100) // boundary: belongs to overflow (range is [0,100))
	if h.Count() != 103 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Underflow() != 1 || h.Overflow() != 2 {
		t.Errorf("under/over = %d/%d", h.Underflow(), h.Overflow())
	}
	for i := 0; i < 10; i++ {
		if h.BucketCount(i) != 10 {
			t.Errorf("bucket %d = %d, want 10", i, h.BucketCount(i))
		}
	}
	if h.BucketLo(3) != 30 || h.BucketMid(3) != 35 {
		t.Errorf("bucket geometry: lo=%v mid=%v", h.BucketLo(3), h.BucketMid(3))
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if h.Mode() != 0 {
		t.Error("empty histogram mode should be 0")
	}
	h.Add(3.2)
	h.Add(3.7)
	h.Add(8.1)
	if h.Mode() != 3.5 {
		t.Errorf("Mode = %v, want 3.5", h.Mode())
	}
}

func TestHistogramRows(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	h.Add(35)
	h.Add(55)
	rows := h.Rows()
	if len(rows) != 3 { // buckets 3,4,5 (4 is empty but inside occupied span)
		t.Fatalf("Rows = %v", rows)
	}
	if rows[0][0] != 30 || rows[0][1] != 1 {
		t.Errorf("first row = %v", rows[0])
	}
	if rows[1][1] != 0 {
		t.Errorf("interior empty bucket should appear: %v", rows[1])
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if h.Render(20) != "(empty)\n" {
		t.Error("empty render")
	}
	h.Add(1)
	h.Add(1)
	h.Add(5)
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Errorf("render missing bars: %q", out)
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid histogram should panic")
		}
	}()
	NewHistogram(10, 0, 5)
}

func TestHistogramConservation(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(-50, 50, 17)
		n := int64(0)
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		var inRange int64
		for i := 0; i < h.Buckets(); i++ {
			inRange += h.BucketCount(i)
		}
		return h.Count() == n && inRange+h.Underflow()+h.Overflow() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("lat")
	if _, ok := s.Last(); ok {
		t.Error("empty Last should be !ok")
	}
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i*2))
	}
	if s.Len() != 10 {
		t.Errorf("Len = %d", s.Len())
	}
	if p := s.At(3); p.X != 3 || p.Y != 6 {
		t.Errorf("At(3) = %v", p)
	}
	if last, ok := s.Last(); !ok || last.Y != 18 {
		t.Errorf("Last = %v %v", last, ok)
	}
	if got := s.YSummary().Mean(); got != 9 {
		t.Errorf("YSummary mean = %v", got)
	}
}

func TestSeriesDownsample(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 100; i++ {
		s.Add(float64(i), 10)
	}
	d := s.Downsample(10)
	if d.Len() != 10 {
		t.Fatalf("Downsample len = %d", d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if d.At(i).Y != 10 {
			t.Errorf("downsampled Y = %v, want 10", d.At(i).Y)
		}
	}
	// Short series pass through.
	if got := s.Downsample(1000).Len(); got != 100 {
		t.Errorf("short-series downsample len = %d", got)
	}
	if got := s.Downsample(0).Len(); got != 0 {
		t.Errorf("Downsample(0) len = %d", got)
	}
}

func TestSeriesCSV(t *testing.T) {
	ss := NewSeriesSet()
	ss.Add("a,b").Add(1, 2) // name needs escaping
	var b strings.Builder
	if err := ss.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "x,\"a,b\"\n") || !strings.Contains(out, "1,2\n") {
		t.Errorf("CSV = %q", out)
	}
}

func TestSeriesSet(t *testing.T) {
	ss := NewSeriesSet()
	a := ss.Add("a")
	a2 := ss.Add("a")
	if a != a2 {
		t.Error("Add should return existing series")
	}
	b := ss.Add("b")
	a.Add(0, 1)
	a.Add(1, 2)
	b.Add(0, 3)
	if got := ss.Series(); len(got) != 2 || got[1] != b {
		t.Errorf("Series = %v, want [a b]", got)
	}
	var buf strings.Builder
	if err := ss.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "x,a,b") {
		t.Errorf("header missing: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV rows = %d: %q", len(lines), out)
	}
	if lines[2] != "1,2," {
		t.Errorf("ragged row = %q", lines[2])
	}
}
