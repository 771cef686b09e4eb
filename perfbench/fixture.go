package main

import (
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/tdmatch/tdmatch"
	"github.com/tdmatch/tdmatch/internal/datasets"
	"github.com/tdmatch/tdmatch/perfbench/oracle"
)

// fixture is a generated matching scenario written to corpus files: a
// table (the first corpus, the match targets) and a text corpus (the
// second, the queries), with the ground truth of every query.
type fixture struct {
	dir                   string
	firstPath, secondPath string
	firstName, secondName string
	cfg                   tdmatch.Config // the configuration the snapshot is trained with
	// built holds Model.Stats of the Builds run on the fixture: the
	// snapshot's, or build-imdb's timed ones.
	built []tdmatch.Stats
	// truth maps a second-corpus document ID (as the loaded corpus names
	// it) to the ID of its correct first-corpus match.
	truth map[string]string
	// held are documents of the second corpus kept out of the files, for
	// ingestion; their IDs are fresh and truth covers them.
	held []tdmatch.IngestDoc
	// queries lists the second-corpus IDs in the files.
	queries []string
	snap    string // path of the v6 snapshot, once built
}

// imdbFixture writes the paper's IMDb WT scenario (a 13-attribute movie
// table and free-text reviews, Table I) with reviewsPerMovie reviews per
// movie, of which the first base reviews of each movie go into the review
// file and the rest are held out for ingestion.
func imdbFixture(dir string, seed int64, movies, reviewsPerMovie, base int) (*fixture, error) {
	sc, err := datasets.IMDb(datasets.IMDbConfig{Seed: seed, Movies: movies,
		ReviewsPerMovie: reviewsPerMovie, WithTitle: true, GeneralSentences: 1})
	if err != nil {
		return nil, err
	}
	fx := &fixture{dir: dir, firstName: "movies", secondName: "reviews", truth: map[string]string{},
		firstPath: filepath.Join(dir, "movies.csv"), secondPath: filepath.Join(dir, "reviews.txt")}
	rows := make([][]string, len(sc.First.Docs))
	for i, d := range sc.First.Docs {
		for _, v := range d.Values {
			rows[i] = append(rows[i], v.Text)
		}
	}
	if err := writeCSV(fx.firstPath, sc.First.Columns, rows); err != nil {
		return nil, err
	}
	// Reviews come movie by movie, reviewsPerMovie each, in generation order.
	var lines []string
	for i, d := range sc.Second.Docs {
		movie := fmt.Sprintf("movies:t%d", i/reviewsPerMovie)
		text := d.Values[0].Text
		if i%reviewsPerMovie < base {
			id := fmt.Sprintf("reviews:p%d", len(lines))
			lines = append(lines, text)
			fx.queries = append(fx.queries, id)
			fx.truth[id] = movie
			continue
		}
		id := fmt.Sprintf("reviews:n%d", len(fx.held))
		fx.held = append(fx.held, tdmatch.IngestDoc{Side: 2, ID: id, Values: []string{text}})
		fx.truth[id] = movie
	}
	return fx, writeLines(fx.secondPath, lines)
}

// catalogFixture writes a large synthetic catalogue for the serving
// workloads: n items with five attributes and n free-text notes, note i
// describing item i. A note names some of its item's attributes (half of
// them its unique code), one attribute of a random other item as a
// distractor, and filler words that occur in no item. Every value is a
// made-up word built from syllables, unique within its column.
func catalogFixture(dir string, seed int64, n int) (*fixture, error) {
	r := rand.New(rand.NewSource(seed))
	fx := &fixture{dir: dir, firstName: "items", secondName: "notes", truth: map[string]string{},
		firstPath: filepath.Join(dir, "items.csv"), secondPath: filepath.Join(dir, "notes.txt")}
	cols := []string{"code", "brand", "category", "color", "material"}
	vocab := []int{n, 300, 60, 40, 80} // distinct values per column
	words := make([][]string, len(cols))
	for c, size := range vocab {
		words[c] = make([]string, size)
		for i := range words[c] {
			words[c][i] = synthWord(c, i)
		}
	}
	filler := make([]string, 400)
	for i := range filler {
		filler[i] = synthWord(len(cols), i)
	}
	rows := make([][]string, n)
	lines := make([]string, n)
	for i := range rows {
		row := []string{words[0][i]}
		for c := 1; c < len(cols); c++ {
			row = append(row, words[c][r.Intn(vocab[c])])
		}
		rows[i] = row
		var parts []string
		if r.Intn(2) == 0 {
			parts = append(parts, row[0])
		}
		for c := 1; c < len(cols); c++ {
			if r.Intn(10) < 7 {
				parts = append(parts, row[c])
			}
		}
		if len(parts) < 2 {
			parts = append(parts, row[1], row[2])
		}
		if r.Intn(2) == 0 {
			c := 1 + r.Intn(len(cols)-1)
			parts = append(parts, rows[r.Intn(i+1)][c])
		}
		for k := 4 + r.Intn(5); k > 0; k-- {
			parts = append(parts, filler[r.Intn(len(filler))])
		}
		r.Shuffle(len(parts), func(a, b int) { parts[a], parts[b] = parts[b], parts[a] })
		lines[i] = strings.Join(parts, " ")
		id := fmt.Sprintf("notes:p%d", i)
		fx.queries = append(fx.queries, id)
		fx.truth[id] = fmt.Sprintf("items:t%d", i)
	}
	if err := writeCSV(fx.firstPath, cols, rows); err != nil {
		return nil, err
	}
	return fx, writeLines(fx.secondPath, lines)
}

// synthWord spells index i of vocabulary class as syllables: a class
// prefix then base-16 digits, e.g. "bo" + "kamitu".
func synthWord(class, i int) string {
	const cons, vows = "bdfgklmnprstvz", "aiou"
	var sb strings.Builder
	sb.WriteByte(cons[class%len(cons)])
	sb.WriteByte('o')
	for {
		d := i % 16
		sb.WriteByte(cons[d%len(cons)])
		sb.WriteByte(vows[d/4])
		i /= 16
		if i == 0 {
			break
		}
	}
	return sb.String()
}

func writeCSV(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = csv.NewWriter(f).WriteAll(append([][]string{header}, rows...))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func writeLines(path string, lines []string) error {
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// load reads both corpus files, as tdserved does.
func (fx *fixture) load() (first, second *tdmatch.Corpus, err error) {
	if first, err = tdmatch.LoadCorpus(fx.firstPath, fx.firstName); err != nil {
		return nil, nil, err
	}
	if second, err = tdmatch.LoadCorpus(fx.secondPath, fx.secondName); err != nil {
		return nil, nil, err
	}
	return first, second, nil
}

// buildSnapshot trains a model on the fixture with fx.cfg and saves it as
// a v6 snapshot, the format tdserved serves by default.
func (fx *fixture) buildSnapshot() error {
	first, second, err := fx.load()
	if err != nil {
		return err
	}
	start := time.Now()
	m, err := tdmatch.Build(first, second, fx.cfg)
	if err != nil {
		return err
	}
	logf("fixture %s/%s: %d+%d documents, trained in %s", fx.firstName, fx.secondName,
		first.Len(), second.Len(), time.Since(start).Round(time.Millisecond))
	fx.built = append(fx.built, m.Stats())
	fx.snap = filepath.Join(fx.dir, "model.snap")
	return m.SaveFileV6(fx.snap)
}

// bind opens the snapshot in process over freshly loaded corpora.
func (fx *fixture) bind() (*tdmatch.Model, error) {
	first, second, err := fx.load()
	if err != nil {
		return nil, err
	}
	snap, err := tdmatch.OpenSnapshotFile(fx.snap)
	if err != nil {
		return nil, err
	}
	return snap.Bind(first, second)
}

// exactFirst indexes the first-corpus vectors of m for the oracle.
func exactFirst(m *tdmatch.Model, first []string) (*oracle.Exact, error) {
	vecs := make([][]float32, len(first))
	for i, id := range first {
		vecs[i] = m.Vector(id)
	}
	return oracle.NewExact(first, vecs)
}

// truthSets turns fx.truth into the oracle's relevance sets.
func (fx *fixture) truthSets() map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(fx.truth))
	for q, t := range fx.truth {
		out[q] = map[string]bool{t: true}
	}
	return out
}
