package oracle

import (
	"math"
	"testing"
)

func TestTopKOrdersByScoreThenID(t *testing.T) {
	e, err := NewExact(
		[]string{"d", "c", "b", "a", "z"},
		[][]float32{{1, 0}, {0, 1}, {2, 0}, {1, 1}, {0, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	got := e.TopK([]float32{3, 0}, 4)
	// cos with (1,0): d=1, b=1 (tie, b first), a=1/sqrt2, c=0 and z=0
	// (tie, c first; z is the zero vector).
	want := []Hit{{"b", 1}, {"d", 1}, {"a", 1 / math.Sqrt2}, {"c", 0}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("rank %d: got %v, want %v", i+1, got[i], want[i])
		}
	}
	if n := len(e.TopK([]float32{1, 0}, 10)); n != 5 {
		t.Fatalf("k beyond the candidates: got %d hits, want 5", n)
	}
}

func TestNewExactLengthMismatch(t *testing.T) {
	if _, err := NewExact([]string{"a"}, nil); err == nil {
		t.Fatal("want an error for 1 id and 0 vectors")
	}
}

func TestCompare(t *testing.T) {
	exact := []Hit{{"a", 0.9}, {"b", 0.8}, {"c", 0.80000001}, {"d", 0.5}}
	const tol = 1e-4
	cases := []struct {
		name string
		got  []Hit
		ok   bool
	}{
		{"exact", []Hit{{"a", 0.9}, {"b", 0.8}}, true},
		{"float32 rounding", []Hit{{"a", 0.90000003}, {"b", 0.79999995}}, true},
		{"near tie swapped", []Hit{{"a", 0.9}, {"c", 0.8}}, true},
		{"wrong id", []Hit{{"a", 0.9}, {"d", 0.8}}, false},
		{"wrong score", []Hit{{"a", 0.9}, {"b", 0.7}}, false},
		{"too short", []Hit{{"a", 0.9}}, false},
		{"duplicate", []Hit{{"a", 0.9}, {"a", 0.9}}, false},
		{"swapped order", []Hit{{"b", 0.8}, {"a", 0.9}}, false},
	}
	for _, c := range cases {
		err := Compare(c.got, exact, 2, tol)
		if (err == nil) != c.ok {
			t.Errorf("%s: Compare = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestAveragePrecision(t *testing.T) {
	rel := map[string]bool{"x": true}
	for _, c := range []struct {
		ranked []string
		want   float64
	}{
		{[]string{"x", "a"}, 1},
		{[]string{"a", "x"}, 0.5},
		{[]string{"a", "b", "c", "x"}, 0.25},
		{[]string{"a", "b"}, 0},
	} {
		if got := AveragePrecision(c.ranked, rel, 10); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("AP(%v) = %v, want %v", c.ranked, got, c.want)
		}
	}
	// Two relevant documents at ranks 1 and 3: (1/1 + 2/3) / 2.
	two := map[string]bool{"x": true, "y": true}
	if got, want := AveragePrecision([]string{"x", "a", "y"}, two, 10), (1+2.0/3)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("AP with two relevant = %v, want %v", got, want)
	}
	// A relevant document beyond k does not count.
	if got := AveragePrecision([]string{"a", "x"}, rel, 1); got != 0 {
		t.Errorf("AP@1 = %v, want 0", got)
	}
}

func TestMeanAP(t *testing.T) {
	rankings := map[string][]string{"q1": {"x"}, "q2": {"a", "y"}, "q3": {"z"}}
	truth := map[string]map[string]bool{"q1": {"x": true}, "q2": {"y": true}}
	if got := MeanAP(rankings, truth, 10); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("MeanAP = %v, want 0.75 (q3 has no truth and is skipped)", got)
	}
}
