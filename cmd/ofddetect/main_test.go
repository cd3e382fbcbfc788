package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/fastofd/fastofd"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// TestReplayMatchesDetect replays one stream of cell writes and '+'
// appends through both engines — the standalone monitor and the merged
// pipeline — and checks each final report against a fresh Detect over the
// evolved instance.
func TestReplayMatchesDetect(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Clinical(300, 7)
	dataPath := filepath.Join(dir, "trials.csv")
	ontPath := filepath.Join(dir, "ont.json")
	if err := relation.WriteCSVFile(dataPath, ds.Rel); err != nil {
		t.Fatal(err)
	}
	if err := ontology.WriteJSONFile(ontPath, ds.FullOnt); err != nil {
		t.Fatal(err)
	}
	streamPath := filepath.Join(dir, "stream.csv")
	evolved := writeStream(t, streamPath, ds.Rel)

	replays := map[string]func(context.Context, *fastofd.Relation, *fastofd.Ontology, fastofd.Set, string, int, int, int, *fastofd.Stats) (*fastofd.Report, error){
		"monitor":  replayUpdates,
		"pipeline": replayPipeline,
	}
	for name, replay := range replays {
		t.Run(name, func(t *testing.T) {
			rel, err := fastofd.ReadCSVFile(dataPath)
			if err != nil {
				t.Fatal(err)
			}
			ont, err := fastofd.ReadOntologyFile(ontPath)
			if err != nil {
				t.Fatal(err)
			}
			sigma, err := fastofd.ParseOFDs(rel.Schema(), []string{"CC -> CTRY", "SYMP -> MED"})
			if err != nil {
				t.Fatal(err)
			}
			rows := rel.NumRows()
			rep, err := replay(context.Background(), rel, ont, sigma, streamPath, 4, 2, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rel.NumRows() != rows+5 || !reflect.DeepEqual(rel.Rows(), evolved.Rows()) {
				t.Fatalf("replay left %d rows that differ from the stream applied directly (%d rows)", rel.NumRows(), evolved.NumRows())
			}
			if len(rep.Violations) == 0 {
				t.Fatal("the stream plants violations; the report has none")
			}
			got, _ := json.Marshal(rep)
			want, _ := json.Marshal(fastofd.Detect(rel, ont, sigma))
			if string(got) != string(want) {
				t.Fatalf("final report diverged from Detect over the evolved instance\n got %s\nwant %s", got, want)
			}
		})
	}
}

// writeStream writes a seeded update stream over rel: consequent cell
// writes (CTRY and MED values borrowed from other rows, plus out-of-
// ontology junk), five appended copies of existing rows, and a comment.
// It returns a copy of rel with the stream applied directly.
func writeStream(t *testing.T, path string, rel *relation.Relation) *relation.Relation {
	t.Helper()
	evolved := rel.Clone()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	rng := rand.New(rand.NewSource(11))
	schema := rel.Schema()
	cols := []int{schema.MustIndex("CTRY"), schema.MustIndex("MED")}
	fmt.Fprintln(f, "# consequent writes and appends")
	// 41 records with appends at k%8 == 3 leave one cell write pending
	// at the end of the stream (batches of 4), so the final flush matters.
	for k := 0; k < 41; k++ {
		if k%8 == 3 {
			row := rel.Row(rng.Intn(rel.NumRows()))
			if err := w.Write(append([]string{"+"}, row...)); err != nil {
				t.Fatal(err)
			}
			evolved.AppendRow(row)
			continue
		}
		col := cols[rng.Intn(len(cols))]
		val := rel.String(rng.Intn(rel.NumRows()), col)
		if rng.Intn(4) == 0 {
			val = fmt.Sprintf("junk-%d", rng.Intn(3))
		}
		row := rng.Intn(rel.NumRows())
		if err := w.Write([]string{fmt.Sprint(row), schema.Name(col), val}); err != nil {
			t.Fatal(err)
		}
		evolved.SetString(row, col, val)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return evolved
}
