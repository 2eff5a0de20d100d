package model

import (
	"bytes"
	"math"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/tscout"
)

// TestFromArchiveMatchesFromTrainingPoints is the column-path equivalence
// check: reading model points straight from archive columns must produce
// exactly what materializing TrainingPoints and converting them does.
func TestFromArchiveMatchesFromTrainingPoints(t *testing.T) {
	var pts []tscout.TrainingPoint
	for i := 0; i < 333; i++ {
		tp := tscout.TrainingPoint{
			OU:        tscout.OUID(1 + i%4),
			OUName:    []string{"scan", "filter", "join", "sort"}[i%4],
			Subsystem: tscout.SubsystemID(i % 2),
			PID:       1000 + i%3,
			Metrics:   tscout.Metrics{ElapsedNS: int64(i)*977 + 13, Cycles: uint64(i) * 3},
		}
		if i%4 != 3 {
			tp.Features = []float64{float64(i % 50), 0.25 * float64(i)}
			tp.FeatureNames = []string{"rows", "width"}
		}
		pts = append(pts, tp)
	}

	var buf bytes.Buffer
	w := archive.NewWriterSize(&buf, 41)
	if err := w.WriteBatch(pts); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	hw := []float64{2.1}
	want := FromTrainingPoints(pts, hw)
	got, err := FromArchive(r, hw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("FromArchive returned %d points, want %d", len(got), len(want))
	}
	check := func(when string) {
		t.Helper()
		for i := range want {
			a, b := want[i], got[i]
			if a.OU != b.OU || a.Sub != b.Sub || a.Template != b.Template ||
				a.TargetUS != b.TargetUS || len(a.Features) != len(b.Features) {
				t.Fatalf("%s: point %d differs:\n want %+v\n got  %+v", when, i, a, b)
			}
			for f := range a.Features {
				if math.Float64bits(a.Features[f]) != math.Float64bits(b.Features[f]) {
					t.Fatalf("%s: point %d feature %d: %v != %v", when, i, f, a.Features[f], b.Features[f])
				}
			}
		}
	}
	check("read back")

	// Points may share a backing array, but appending to one point's
	// features must never write into another point's.
	for i := range got {
		_ = append(got[i].Features, -1, -2, -3)
	}
	check("after appending to every point")
}
