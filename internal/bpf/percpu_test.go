package bpf

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

func TestPerCPURingRoutesByCPU(t *testing.T) {
	r := NewPerCPURing("t/percpu", 4, 8)
	r.SubmitFrom(0, []byte{0})
	r.SubmitFrom(2, []byte{2})
	r.SubmitFrom(2, []byte{22})
	r.SubmitFrom(0, []byte{1})
	r.SubmitFrom(6, []byte{3})  // out of range: wraps to CPU 2
	r.SubmitFrom(-1, []byte{4}) // negative: clamps to CPU 0

	wantPending := []int{3, 0, 3, 0}
	for cpu, want := range wantPending {
		if got := r.RingStats(cpu).Pending; got != want {
			t.Fatalf("cpu %d pending = %d, want %d", cpu, got, want)
		}
	}
	if got := r.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6", got)
	}

	var b Batch
	if n := r.DrainBatch(2, &b, 0); n != 3 {
		t.Fatalf("DrainBatch(cpu 2) = %d, want 3", n)
	}
	for i, want := range [][]byte{{2}, {22}, {3}} {
		if !bytes.Equal(b.Sample(i), want) {
			t.Fatalf("cpu 2 sample %d = %v, want %v", i, b.Sample(i), want)
		}
	}
}

func TestPerCPURingOverwriteAndIdentity(t *testing.T) {
	r := NewPerCPURing("t/percpu", 2, 4)
	for i := 0; i < 10; i++ {
		r.SubmitFrom(1, []byte{byte(i)})
	}
	var b Batch
	drained := r.DrainBatch(1, &b, 3)
	if drained != 3 {
		t.Fatalf("drained %d, want 3", drained)
	}
	// Oldest surviving samples first: 10 submitted into 4 slots = 6 drops,
	// so the ring held 6..9 and the batch starts at 6.
	for i := 0; i < 3; i++ {
		if got := b.Sample(i)[0]; got != byte(6+i) {
			t.Fatalf("sample %d = %d, want %d", i, got, 6+i)
		}
	}
	st := r.RingStats(1)
	if st.Submitted != 10 || st.Dropped != 6 || st.Drained != 3 || st.Pending != 1 {
		t.Fatalf("cpu 1 stats %+v", st)
	}
	if st.Submitted != st.Drained+st.Dropped+int64(st.Pending) {
		t.Fatalf("per-ring identity violated: %+v", st)
	}
	agg := r.Stats()
	if agg.Submitted != 10 || agg.Capacity != 8 {
		t.Fatalf("aggregate stats %+v", agg)
	}

	r.Reset()
	if st := r.Stats(); st.Submitted != 0 || st.Pending != 0 {
		t.Fatalf("stats after Reset: %+v", st)
	}
}

// TestPerCPURingDrainIsAllocationFree is the tentpole's zero-allocation
// contract: once the slot buffers and the destination batch have warmed
// up, a submit → drain cycle allocates nothing.
func TestPerCPURingDrainIsAllocationFree(t *testing.T) {
	r := NewPerCPURing("t/percpu", 2, 64)
	payload := bytes.Repeat([]byte{7}, 248)
	var b Batch
	// Warm-up: grow every slot buffer and the batch buffer.
	for i := 0; i < 128; i++ {
		r.SubmitFrom(i%2, payload)
	}
	b.Reset()
	r.DrainBatch(0, &b, 0)
	r.DrainBatch(1, &b, 0)

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			r.SubmitFrom(i%2, payload)
		}
		b.Reset()
		r.DrainBatch(0, &b, 0)
		r.DrainBatch(1, &b, 0)
	})
	if allocs != 0 {
		t.Fatalf("warmed submit+drain cycle allocates %.1f times per run, want 0", allocs)
	}
}

// drainAll empties every CPU ring in CPU order and returns copies of the
// samples.
func drainAll(r *PerCPURing) [][]byte {
	var out [][]byte
	var b Batch
	for cpu := 0; cpu < r.NumCPUs(); cpu++ {
		b.Reset()
		n := r.DrainBatch(cpu, &b, 0)
		for i := 0; i < n; i++ {
			out = append(out, append([]byte(nil), b.Sample(i)...))
		}
	}
	return out
}

func TestRingBufferFIFOAndOverwrite(t *testing.T) {
	r := NewPerCPURing("t", 1, 4)
	for i := 0; i < 6; i++ {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(i))
		r.SubmitFrom(0, buf)
	}
	st := r.Stats()
	if st.Submitted != 6 || st.Dropped != 2 || st.Pending != 4 || st.Capacity != 4 {
		t.Fatalf("stats: %+v", st)
	}
	out := drainAll(r)
	if len(out) != 4 {
		t.Fatalf("drained %d", len(out))
	}
	// Oldest two were overwritten; 2..5 survive in order.
	for i, buf := range out {
		if got := binary.LittleEndian.Uint64(buf); got != uint64(i+2) {
			t.Fatalf("entry %d: got %d want %d", i, got, i+2)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("drain must empty the ring")
	}
}

// TestPerCPURingDrainBatchAccumulates: a bounded drain followed by an
// unbounded one appends to the same batch in submission order.
func TestPerCPURingDrainBatchAccumulates(t *testing.T) {
	r := NewPerCPURing("t", 2, 16)
	for i := 0; i < 10; i++ {
		r.SubmitFrom(1, []byte{byte(i)})
	}
	var b Batch
	if n := r.DrainBatch(1, &b, 3); n != 3 || b.Len() != 3 {
		t.Fatalf("first batch: n=%d len=%d", n, b.Len())
	}
	if n := r.DrainBatch(1, &b, 0); n != 7 || b.Len() != 10 {
		t.Fatalf("second batch: n=%d len=%d", n, b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		if b.Sample(i)[0] != byte(i) {
			t.Fatalf("order broken at %d: %d", i, b.Sample(i)[0])
		}
	}
	if st := r.Stats(); st.Pending != 0 || st.Drained != 10 {
		t.Fatalf("stats after full drain: %+v", st)
	}
}

// TestRingBufferConcurrentSubmitDrainReset exercises the ring under
// producers on several CPUs (two of them sharing one CPU ring), a consumer
// draining every CPU ring, and resets concurrent with both; run with -race
// it proves the per-ring locking discipline (the Processor's drain threads
// call DrainBatch from their own goroutines while Collectors submit).
func TestRingBufferConcurrentSubmitDrainReset(t *testing.T) {
	const numCPUs, producers, perProducer = 3, 4, 2000
	r := NewPerCPURing("t", numCPUs, 64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; i < perProducer; i++ {
				binary.LittleEndian.PutUint64(buf, uint64(p*perProducer+i))
				r.SubmitFrom(p%numCPUs, buf)
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var b Batch
	drained := 0
	for i := 0; ; i++ {
		b.Reset()
		for cpu := 0; cpu < numCPUs; cpu++ {
			drained += r.DrainBatch(cpu, &b, 32)
		}
		for j := 0; j < b.Len(); j++ {
			if len(b.Sample(j)) != 8 {
				t.Fatalf("corrupt entry of %d bytes", len(b.Sample(j)))
			}
		}
		_ = r.Stats()
		if i%97 == 96 {
			r.Reset()
		}
		select {
		case <-done:
			// Producers may have finished after this loop's drain; count
			// the final sweep too.
			drained += len(drainAll(r))
			if st := r.Stats(); st.Pending != 0 {
				t.Fatalf("pending after final drain: %d", st.Pending)
			}
			if drained == 0 {
				t.Fatalf("consumer never saw a sample")
			}
			return
		default:
		}
	}
}

// TestRingBufferStatsConsistency: submitted - dropped must equal drained +
// pending at any quiescent point (the invariant the Processor's telemetry
// reports on).
func TestRingBufferStatsConsistency(t *testing.T) {
	r := NewPerCPURing("t", 2, 8)
	for i := 0; i < 20; i++ {
		r.SubmitFrom(i%2, []byte{byte(i)})
	}
	var b Batch
	got := r.DrainBatch(0, &b, 5) + r.DrainBatch(1, &b, 2)
	st := r.Stats()
	if st.Submitted-st.Dropped != int64(got+st.Pending) {
		t.Fatalf("invariant broken: %+v drained=%d", st, got)
	}
}

func TestPerCPURingSubmitCopies(t *testing.T) {
	r := NewPerCPURing("rb", 1, 2)
	buf := []byte{1, 2, 3}
	r.SubmitFrom(0, buf)
	buf[0] = 9
	if got := drainAll(r); !bytes.Equal(got[0], []byte{1, 2, 3}) {
		t.Fatalf("SubmitFrom must copy: %v", got[0])
	}
}

func TestPerCPURingMapAdapter(t *testing.T) {
	r := NewPerCPURing("rb", 2, 2)
	if r.Lookup(nil) != nil || r.Delete(nil) {
		t.Fatalf("lookup/delete unsupported")
	}
	if err := r.Update(nil, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if r.RingStats(0).Pending != 1 {
		t.Fatalf("update must submit on CPU 0")
	}
	if r.KeySize() != 0 || r.ValueSize() != 0 || r.MaxEntries() != 4 || r.Name() != "rb" {
		t.Fatalf("metadata")
	}
}

func TestPerCPURingMinCapacity(t *testing.T) {
	r := NewPerCPURing("rb", 0, 0)
	r.SubmitFrom(0, []byte{1})
	if r.NumCPUs() != 1 || r.Len() != 1 || r.MaxEntries() != 1 {
		t.Fatalf("CPU count and capacity must clamp to >=1")
	}
}

func TestBatchSampleBoundaries(t *testing.T) {
	var b Batch
	b.Append([]byte{1, 2})
	b.Append(nil)
	b.Append([]byte{3})
	if b.Len() != 3 || b.Bytes() != 3 {
		t.Fatalf("Len=%d Bytes=%d", b.Len(), b.Bytes())
	}
	if !bytes.Equal(b.Sample(0), []byte{1, 2}) || len(b.Sample(1)) != 0 || !bytes.Equal(b.Sample(2), []byte{3}) {
		t.Fatalf("samples %v %v %v", b.Sample(0), b.Sample(1), b.Sample(2))
	}
	b.Reset()
	if b.Len() != 0 || b.Bytes() != 0 {
		t.Fatalf("batch not empty after Reset")
	}
}

// TestVMPerfOutputRoutesByTaskCPU runs one verified program holding a
// per-CPU ring from tasks pinned to different CPUs and asserts each
// submission landed in the submitting task's ring — the kernel-side half
// of the per-CPU drain contract.
func TestVMPerfOutputRoutesByTaskCPU(t *testing.T) {
	ring := NewPerCPURing("t/percpu", 4, 8)
	b := NewBuilder("percpu-out")
	idx := b.AddMap(ring)
	p := b.StoreImm(R10, -8, 99).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Mov(R3, 8).
		Call(HelperPerfOutput).
		Mov(R0, 0).
		Exit().MustBuild()
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatalf("per-CPU perf output program rejected: %v", err)
	}

	k := kernel.New(sim.LargeHW, 1, 0)
	k.SetNumCPUs(4)
	t0 := k.NewTask("w0") // pid 1 -> cpu 0
	t1 := k.NewTask("w1") // pid 2 -> cpu 1
	t1.Migrate(3)
	for i, task := range []*kernel.Task{t0, t1, t1} {
		if _, _, err := lp.Run(task, nil); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := ring.RingStats(0).Pending; got != 1 {
		t.Fatalf("cpu 0 pending = %d, want 1", got)
	}
	if got := ring.RingStats(3).Pending; got != 2 {
		t.Fatalf("cpu 3 pending = %d, want 2", got)
	}
	if got := ring.RingStats(1).Pending; got != 0 {
		t.Fatalf("cpu 1 pending = %d, want 0 after Migrate", got)
	}
}
