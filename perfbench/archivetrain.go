package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"time"

	"tscout/internal/archive"
	"tscout/internal/catalog"
	"tscout/internal/dbms"
	"tscout/internal/exec"
	"tscout/internal/model"
	"tscout/internal/storage"
)

// Model settings: the batch forest of the recorded accuracy experiments
// and the online model the autopilot controller uses by default.
var batchForest = model.Forest{Trees: 16, MaxDepth: 10, Seed: 7}

func onlineModel() model.OnlineModel {
	return &model.WindowedForest{Trees: 8, RefreshTrees: 2, MaxDepth: 8, Seed: 7}
}

const (
	// maxTrainRows caps the rows the batch forest sees, so the accuracy
	// check costs about the same on every workload.
	maxTrainRows = 60_000
	// holdFrac is the share of rows held out to score the batch forest.
	holdFrac = 0.2
	// pushdownOU is the OU the selective query asks for. The archive
	// writes one block per OU, so zone maps skip every other OU's blocks.
	pushdownOU = "disk_writer"
)

// heldOutMAE trains the batch forest on a row split of points and scores
// it on the held-out rows: the paper's accuracy axis. It returns the mean
// absolute error over the rows and the mean over OU templates of each
// template's mean absolute error, both in microseconds. The per-row mean
// is the steadier of the two across seeds: a rare template weighs as much
// as a common one in the per-template mean.
func heldOutMAE(points []model.Point, seed int64, tr *tracer) (rowMAE, templateMAE float64, err error) {
	train, test := model.SplitRows(model.Sample(points, maxTrainRows, seed), holdFrac, seed)
	id := tr.begin("model.train")
	set, err := model.Train(train, batchForest)
	tr.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("train: %w", err)
	}
	id = tr.begin("model.batch_score")
	for _, p := range test {
		rowMAE += math.Abs(p.TargetUS-set.Predict(p)) / float64(len(test))
	}
	templateMAE = set.AvgAbsErrorByTemplate(test)
	tr.end(id)
	if math.IsNaN(rowMAE) || math.IsInf(rowMAE, 0) || len(test) == 0 {
		return 0, 0, fmt.Errorf("held-out error is %v over %d rows", rowMAE, len(test))
	}
	return rowMAE, templateMAE, nil
}

// trainJob is one pass of archive-train's timed job and its outcome.
type trainJob struct {
	reader    *archive.Reader
	attempted int
	problems  []string
	outcome   []string // canonical text of every result, for the digest

	scanRows       int
	scanS          float64
	skipFrac       float64
	prequentialMAE float64
	mae            float64
	templateMAE    float64
}

func (j *trainJob) fail(format string, args ...any) {
	j.problems = append(j.problems, fmt.Sprintf(format, args...))
}

// runTrainJob reads the archive back and trains on it: open and verify,
// query it in SQL and through archive.Table.Scan, build model points,
// stream each sealed segment through the online models (the body of an
// autopilot tick), and train and score the batch forest.
func runTrainJob(data []byte, segments [][]byte, qsrv *dbms.Server, seed int64, tr *tracer) (*trainJob, error) {
	j := &trainJob{}
	id := tr.begin("archive.open")
	r, err := archive.NewReader(data)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("open archive: %w", err)
	}
	j.reader = r
	id = tr.begin("archive.verify")
	err = r.Verify()
	tr.end(id)
	if err != nil {
		j.fail("archive verify: %v", err)
	}
	rows := r.NumRows()
	byOU := r.Stats().RowsByOU

	// SQL over the mounted archive.
	if _, err := qsrv.MountArchive(r); err != nil {
		return nil, fmt.Errorf("mount archive: %w", err)
	}
	se := qsrv.NewSession()
	query := func(kind, q string) *exec.Result {
		j.attempted++
		id := tr.begin("exec.archive_sql." + kind)
		res, err := se.Execute(q)
		tr.end(id)
		if err != nil {
			j.fail("sql %s: %v", kind, err)
			return nil
		}
		return res
	}
	if res := query("count", "SELECT count(*) FROM tscout_archive"); res != nil {
		if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != rows {
			j.fail("SELECT count(*) = %v, archive has %d rows", res.Rows, rows)
		}
	}
	if res := query("groupby", "SELECT ou_name, count(*), avg(elapsed_ns) FROM tscout_archive GROUP BY ou_name"); res != nil {
		j.checkGroups("SQL GROUP BY", res.Rows, byOU)
	}
	if res := query("pushdown", "SELECT count(*), avg(elapsed_ns) FROM tscout_archive WHERE ou_name = '"+pushdownOU+"'"); res != nil {
		if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != byOU[pushdownOU] {
			j.fail("pushdown count = %v, archive has %d %s rows", res.Rows, byOU[pushdownOU], pushdownOU)
		} else {
			j.outcome = append(j.outcome, fmt.Sprintf("pushdown %d %.17g", res.Rows[0][0].AsInt(), res.Rows[0][1].AsFloat()))
		}
	}
	if res := query("project", "SELECT pid, elapsed_ns FROM tscout_archive"); res != nil && int64(len(res.Rows)) != rows {
		j.fail("projection returned %d rows, archive has %d", len(res.Rows), rows)
	}

	// The same three reads through archive.Table.Scan.
	tbl := archive.NewTable(r)
	elapsed := tbl.Schema().ColumnIndex("elapsed_ns")
	scan := func(kind string, proj []int, preds []catalog.VirtualPred, fn func(storage.Row)) catalog.VirtualScanStats {
		j.attempted++
		id := tr.begin("archive.scan." + kind)
		start := time.Now()
		st := tbl.Scan(proj, preds, func(row storage.Row) bool { fn(row); return true })
		j.scanS += time.Since(start).Seconds()
		tr.end(id)
		j.scanRows += st.Rows
		return st
	}
	counts := map[string]int64{}
	sums := map[string]int64{}
	scan("groupby", []int{archive.ColOUName, elapsed}, nil, func(row storage.Row) {
		counts[row[archive.ColOUName].Str]++
		sums[row[archive.ColOUName].Str] += row[elapsed].AsInt()
	})
	groups := make([]storage.Row, 0, len(counts))
	for name, n := range counts {
		groups = append(groups, storage.Row{storage.NewString(name), storage.NewInt(n), storage.NewFloat(float64(sums[name]) / float64(n))})
	}
	j.checkGroups("Table.Scan grouping", groups, byOU)
	var pushed int64
	st := scan("pushdown", []int{elapsed},
		[]catalog.VirtualPred{{Col: archive.ColOUName, Op: catalog.VirtualEq, Val: storage.NewString(pushdownOU)}},
		func(storage.Row) { pushed++ })
	if pushed != byOU[pushdownOU] {
		j.fail("pushdown scan returned %d rows, archive has %d %s rows", pushed, byOU[pushdownOU], pushdownOU)
	}
	if blocks := st.BlocksRead + st.BlocksSkipped; blocks > 0 {
		j.skipFrac = float64(st.BlocksSkipped) / float64(blocks)
	}
	var projected int64
	scan("project", []int{archive.ColPID, elapsed}, nil, func(storage.Row) { projected++ })
	if projected != rows {
		j.fail("projection scan returned %d rows, archive has %d", projected, rows)
	}

	// Model points straight from the archive.
	id = tr.begin("model.from_archive")
	points, err := model.FromArchive(r, nil)
	tr.end(id)
	if err != nil {
		j.fail("FromArchive: %v", err)
	} else if int64(len(points)) != rows {
		j.fail("FromArchive returned %d points, archive has %d rows", len(points), rows)
	}

	// Stream the sealed segments through the online models, scoring each
	// on the models fitted to the segments before it.
	if len(segments) != r.NumSegments() {
		j.fail("kept %d sealed segments, archive has %d", len(segments), r.NumSegments())
	}
	set := model.NewOnlineSet(onlineModel)
	surface := &model.ErrorSurface{}
	var scored []float64
	for i, seg := range segments {
		id := tr.begin("model.segment_read")
		sr, err := archive.NewReader(seg)
		var sp []model.Point
		if err == nil {
			sp, err = model.FromArchive(sr, nil)
		}
		tr.end(id)
		if err != nil {
			j.fail("segment %d: %v", i, err)
			continue
		}
		if i > 0 {
			id = tr.begin("model.stream_score")
			scored = append(scored, set.AvgAbsErrorByTemplate(sp))
			tr.end(id)
		}
		id = tr.begin("model.observe")
		set.ObservePrequential(sp, surface)
		tr.end(id)
		j.attempted++
		id = tr.begin("model.refit")
		err = set.Refit()
		tr.end(id)
		if err != nil {
			j.fail("refit after segment %d: %v", i, err)
		}
	}
	for _, e := range scored {
		j.prequentialMAE += e / float64(len(scored))
	}

	// The batch forest.
	j.attempted++
	if j.mae, j.templateMAE, err = heldOutMAE(points, seed, tr); err != nil {
		j.fail("batch model: %v", err)
	}
	j.outcome = append(j.outcome, fmt.Sprintf("rows %d points %d segments %d prequential %.17g mae %.17g %.17g",
		rows, len(points), len(segments), j.prequentialMAE, j.mae, j.templateMAE))
	return j, nil
}

// checkGroups compares per-OU rows (name, count, mean elapsed) with the
// archive's own per-OU row counts.
func (j *trainJob) checkGroups(what string, got []storage.Row, byOU map[string]int64) {
	if len(got) != len(byOU) {
		j.fail("%s returned %d groups, archive has %d OUs", what, len(got), len(byOU))
	}
	lines := make([]string, 0, len(got))
	for _, row := range got {
		name, n := row[0].Str, row[1].AsInt()
		if n != byOU[name] {
			j.fail("%s: %s has %d rows, archive stats say %d", what, name, n, byOU[name])
		}
		lines = append(lines, fmt.Sprintf("%s %d %.17g", name, n, row[2].AsFloat()))
	}
	sort.Strings(lines)
	j.outcome = append(j.outcome, lines...)
}

// archiveTrainRound is one round of archive-train. The set-up collects a
// CH-benCHmark archive and builds an uninstrumented server to query it;
// the timed job is runTrainJob.
func archiveTrainRound(rc roundCtx) (*round, error) {
	start := time.Now()
	c, err := collect(chCollect, rc.seed, rc.tr, nil, true)
	if err != nil {
		return nil, err
	}
	qsrv, err := dbms.NewServer(dbms.Config{Seed: rc.seed})
	if err != nil {
		return nil, fmt.Errorf("query server: %w", err)
	}
	setupS := time.Since(start).Seconds()

	rc.prof.start()
	start = time.Now()
	j, err := runTrainJob(c.archive.Bytes(), c.segments, qsrv, rc.seed, rc.tr)
	jobS := time.Since(start).Seconds()
	rc.prof.stop()
	if err != nil {
		return nil, err
	}

	rows := float64(j.reader.NumRows())
	rd := &round{
		setupS:    setupS,
		attempted: j.attempted,
		problems:  append(c.check(j.reader, nil), j.problems...),
		work:      rows,
		rate:      rows / jobS,
		e2e:       c.endToEnd(),
	}
	rd.e2e["rows_per_s"] = rd.rate
	rd.e2e["model_mae_us"] = j.mae
	rd.e2e["heap_retained_mb"] = heapRetainedMB(c, qsrv, j)

	h := sha256.New()
	fmt.Fprintln(h, c.digest())
	for _, line := range j.outcome {
		fmt.Fprintln(h, line)
	}
	rd.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])

	if rc.tr != nil {
		rd.layer = c.layers()
		rd.layer["archive.scan_rows_per_s"] = float64(j.scanRows) / j.scanS
		rd.layer["archive.scan_skip_frac"] = j.skipFrac
		rd.layer["model.prequential_mae_us"] = j.prequentialMAE
		rd.layer["model.template_mae_us"] = j.templateMAE
	}
	return rd, nil
}
