package model

import (
	"sort"

	"tscout/internal/archive"
)

// FromArchive builds model points straight from the columnar archive:
// each block's elapsed_ns and feature columns are read directly, so
// Fig-11-style training runs never materialize TrainingPoint structs or
// re-parse rows. Output is ordered by global row index (archive order),
// making it element-for-element identical to
// FromTrainingPoints(reader.Points(), hwContext).
func FromArchive(r *archive.Reader, hwContext []float64) ([]Point, error) {
	type slot struct {
		idx uint64
		p   Point
	}
	out := make([]slot, 0, r.NumRows())
	var err error
	r.Blocks(func(b *archive.Block) bool {
		idx, e := b.RowIndexes()
		if e != nil {
			err = e
			return false
		}
		elapsed, e := b.Metric(0) // elapsed_ns is metric column 0
		if e != nil {
			err = e
			return false
		}
		nf := b.NumFeatures()
		cols := make([][]float64, nf)
		for f := range cols {
			if cols[f], e = b.Feature(f); e != nil {
				err = e
				return false
			}
		}
		ou, sub := b.OU(), b.Subsystem()
		// One backing array per block; each point's capped slice leaves
		// room for the hardware context, so the append below fills in
		// place and never touches the next point's features.
		w := nf + len(hwContext)
		backing := make([]float64, len(idx)*w)
		for row := range idx {
			feats := backing[row*w : row*w+nf : (row+1)*w]
			for f := 0; f < nf; f++ {
				feats[f] = cols[f][row]
			}
			// The template hashes the point's own features only; hardware
			// context joins the model inputs afterwards (same order as
			// FromTrainingPoints).
			tmpl := templateKeyOf(ou, feats)
			feats = append(feats, hwContext...)
			out = append(out, slot{idx: idx[row], p: Point{
				OU:       ou,
				Sub:      sub,
				Features: feats,
				TargetUS: float64(elapsed[row]) / 1000.0,
				Template: tmpl,
			}})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	pts := make([]Point, len(out))
	for i := range out {
		pts[i] = out[i].p
	}
	return pts, nil
}
