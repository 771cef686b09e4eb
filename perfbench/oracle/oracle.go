// Package oracle recomputes what the matcher should answer, independently
// of the program under test: exact top-k by brute-force cosine similarity
// in float64, a near-tie-tolerant comparison of a served ranking against
// it, and mean average precision at k against a scenario's ground truth.
package oracle

import (
	"fmt"
	"math"
	"sort"
)

// Hit is one ranked candidate: a document ID and its similarity score.
type Hit struct {
	ID    string
	Score float64
}

// Exact holds the candidates of one side, normalized in float64.
type Exact struct {
	ids  []string
	rows [][]float64 // unit length; nil for a zero vector
}

// NewExact indexes the candidate vectors. Vectors are normalized in
// float64; a zero vector scores 0 against every query.
func NewExact(ids []string, vecs [][]float32) (*Exact, error) {
	if len(ids) != len(vecs) {
		return nil, fmt.Errorf("oracle: %d ids for %d vectors", len(ids), len(vecs))
	}
	e := &Exact{ids: ids, rows: make([][]float64, len(vecs))}
	for i, v := range vecs {
		e.rows[i] = unit(v)
	}
	return e, nil
}

// unit returns v scaled to unit length in float64 (nil for a zero or
// missing vector).
func unit(v []float32) []float64 {
	var n float64
	for _, x := range v {
		n += float64(x) * float64(x)
	}
	if n == 0 {
		return nil
	}
	n = math.Sqrt(n)
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x) / n
	}
	return out
}

// TopK returns the k candidates most similar to q, ordered by score
// descending and then ID ascending.
func (e *Exact) TopK(q []float32, k int) []Hit {
	uq := unit(q)
	if k > len(e.ids) {
		k = len(e.ids)
	}
	if k <= 0 {
		return nil
	}
	best := make([]Hit, 0, k+1) // kept sorted, best first
	for i, row := range e.rows {
		var s float64
		if uq != nil && row != nil {
			for j, x := range row {
				s += x * uq[j]
			}
		}
		h := Hit{ID: e.ids[i], Score: s}
		if len(best) == k && !before(h, best[k-1]) {
			continue
		}
		at := sort.Search(len(best), func(j int) bool { return before(h, best[j]) })
		best = append(best, Hit{})
		copy(best[at+1:], best[at:])
		best[at] = h
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// before is the ranking order: score descending, then ID ascending.
func before(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// Compare checks a served ranking against the exact one computed over
// more than k candidates (the extra ones show whether rank k is a near
// tie). The lengths must agree, and at every rank the served score must
// equal the exact score within tol. Where the exact score at a rank is
// further than tol from its neighbours the served ID must be the exact
// one; inside a near tie any of the tied candidates is accepted, in any
// order. A nil error means the ranking is correct.
func Compare(got []Hit, exact []Hit, k int, tol float64) error {
	want := exact
	if len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d matches, want %d", len(got), len(want))
	}
	seen := make(map[string]bool, len(got))
	for i, g := range got {
		if seen[g.ID] {
			return fmt.Errorf("rank %d: %s returned twice", i+1, g.ID)
		}
		seen[g.ID] = true
		if math.Abs(g.Score-want[i].Score) > tol {
			return fmt.Errorf("rank %d: %s scored %.6f, exact rank-%d score is %.6f (%s)",
				i+1, g.ID, g.Score, i+1, want[i].Score, want[i].ID)
		}
		if g.ID == want[i].ID {
			continue
		}
		// Accept a different ID only inside a near tie with rank i.
		tied := false
		for _, x := range exact {
			if x.ID == g.ID && math.Abs(x.Score-want[i].Score) <= tol {
				tied = true
				break
			}
		}
		if !tied {
			return fmt.Errorf("rank %d: got %s (%.6f), want %s (%.6f)",
				i+1, g.ID, g.Score, want[i].ID, want[i].Score)
		}
	}
	return nil
}

// AveragePrecision is the average precision at k of one ranking against
// the set of relevant IDs: the mean, over the relevant documents, of the
// precision at the rank each is retrieved (0 for one not in the first k).
func AveragePrecision(ranked []string, relevant map[string]bool, k int) float64 {
	if len(relevant) == 0 {
		return 0
	}
	hits, sum := 0, 0.0
	for i, id := range ranked {
		if i >= k {
			break
		}
		if relevant[id] {
			hits++
			sum += float64(hits) / float64(i+1)
		}
	}
	denom := len(relevant)
	if denom > k {
		denom = k
	}
	return sum / float64(denom)
}

// MeanAP averages AveragePrecision over the queries of rankings, each
// judged against truth[query]. Queries without truth are skipped.
func MeanAP(rankings map[string][]string, truth map[string]map[string]bool, k int) float64 {
	n, sum := 0, 0.0
	for q, ranked := range rankings {
		rel, ok := truth[q]
		if !ok {
			continue
		}
		sum += AveragePrecision(ranked, rel, k)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
