package storage

import "testing"

// TestBufferPoolWarmPathAllocationFree guards the pin hot path the paged
// sweep kernels sit on: once a page is resident, Get/Release must not
// allocate — directly on the pool and through a query Partition (the
// per-query accounting the trace instrumentation reads is plain counter
// arithmetic, so routing pins through a partition must stay free too).
// Observability reads these counters at scrape/release time; this test
// pins that the instrumented path itself added no per-pin work.
func TestBufferPoolWarmPathAllocationFree(t *testing.T) {
	bp, ids := partitionFile(t, 4, 4)
	for _, id := range ids {
		touch(t, bp, id) // fault everything in: measurements below are warm hits
	}

	id := ids[0]
	if allocs := testing.AllocsPerRun(200, func() {
		buf, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		_ = buf
		bp.Release(id)
	}); allocs > 0 {
		t.Errorf("warm BufferPool Get/Release allocates %.2f per op, want 0", allocs)
	}

	part := bp.Partition(2)
	defer part.Close()
	touch(t, part, id) // adopt the frame into the partition's accounting
	if allocs := testing.AllocsPerRun(200, func() {
		buf, err := part.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		_ = buf
		part.Release(id)
	}); allocs > 0 {
		t.Errorf("warm Partition Get/Release allocates %.2f per op, want 0", allocs)
	}

	st := part.Stats()
	if st.Hits == 0 {
		t.Fatal("partition recorded no hits — warm path not exercised")
	}
}

// TestBufferPoolMissPathAllocationFree guards the steady-state miss path:
// once a tiny pool is full, every miss evicts a victim and loads the new
// page into the victim's frame and buffer, so cycling through more pages
// than the pool holds allocates nothing per miss — directly and through a
// query Partition — and every load still returns the right page.
func TestBufferPoolMissPathAllocationFree(t *testing.T) {
	bp, ids := partitionFile(t, 8, 2)
	for _, id := range ids {
		touch(t, bp, id) // fill the pool: every frame below is recycled
	}
	part := bp.Partition(1)
	defer part.Close()
	for _, pp := range []struct {
		name string
		pool PagePool
	}{{"BufferPool", bp}, {"Partition", part}} {
		next := 0
		before := bp.Stats().Misses
		if allocs := testing.AllocsPerRun(200, func() {
			i := next % len(ids)
			next++
			buf, err := pp.pool.Get(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(i) {
				t.Fatalf("page %d holds %d, want %d", ids[i], buf[0], i)
			}
			pp.pool.Release(ids[i])
		}); allocs > 0 {
			t.Errorf("%s miss allocates %.2f per op, want 0", pp.name, allocs)
		}
		if misses := bp.Stats().Misses - before; misses < 200 {
			t.Fatalf("%s: %d misses over 201 cycling Gets — miss path not exercised", pp.name, misses)
		}
	}
}
