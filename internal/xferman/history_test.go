package xferman

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"gftpvc/internal/connpool"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
)

// historyCluster is one source holding a one-byte object, one
// destination, and a pooled one-worker manager copying between them.
type historyCluster struct {
	src *gridftp.Server
	m   *Manager
	job Job
}

func newHistoryCluster(t *testing.T) *historyCluster {
	r := rig.New(t)
	src := r.Server(gridftp.Config{}, rig.Objects{"one.bin": []byte{1}})
	dst := r.Server(gridftp.Config{})
	pool := connpool.New(connpool.Config{})
	t.Cleanup(pool.Close)
	m, err := New(1, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return &historyCluster{src: src, m: m,
		job: Job{Src: ep(src), Dst: ep(dst), SrcName: "one.bin", DstName: "copy.bin"}}
}

// run submits n jobs and only then waits for each in turn, as
// gftpxfer does after SubmitAll, returning their IDs.
func (c *historyCluster) run(t *testing.T, n int) []JobID {
	t.Helper()
	ctx := context.Background()
	ids := make([]JobID, n)
	for i := range ids {
		id, err := c.m.Submit(ctx, c.job)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if res, err := c.m.Wait(ctx, id); err != nil || res.Status != Succeeded {
			t.Fatalf("job %d: %+v, %v", id, res, err)
		}
	}
	return ids
}

// TestHistoryIsBounded submits 2*capacity + 100 jobs before waiting on
// any, so most finish long before they are read: every one must still
// answer Wait, and afterwards the manager and the source server each
// keep exactly their capacity of history, forgetting the oldest, with
// the server's records oldest first.
func TestHistoryIsBounded(t *testing.T) {
	const jobs = 2*maxSettledJobs + 100
	c := newHistoryCluster(t)
	ids := c.run(t, jobs)

	c.m.mu.Lock()
	kept := len(c.m.jobs)
	c.m.mu.Unlock()
	if kept != maxSettledJobs {
		t.Errorf("manager keeps %d jobs after %d read, want %d", kept, jobs, maxSettledJobs)
	}
	evicted := jobs - maxSettledJobs
	for _, id := range ids[:evicted] {
		if _, err := c.m.Result(id); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("evicted job %d: err %v, want ErrUnknownJob", id, err)
		}
	}
	if _, err := c.m.Wait(context.Background(), ids[evicted-1]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Wait on evicted job: err %v, want ErrUnknownJob", err)
	}
	for _, id := range ids[evicted:] {
		if res, err := c.m.Result(id); err != nil || res.Status != Succeeded {
			t.Fatalf("kept job %d: %+v, %v", id, res, err)
		}
	}

	// The source server logs one RETR per job and keeps the last 1,024.
	recs := c.src.Records()
	if len(recs) != 1024 {
		t.Fatalf("server keeps %d records after %d transfers, want 1024", len(recs), jobs)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start.Before(recs[i-1].Start) {
			t.Fatalf("records not oldest first at %d: %v after %v", i, recs[i].Start, recs[i-1].Start)
		}
	}
}

// TestHistorySoak: retained history must not grow with the number of
// transfers. Once both 1,024-entry histories are full, after
// 2*maxSettledJobs jobs, the live heap after 10^4 one-byte jobs stays
// within 2x its value then.
func TestHistorySoak(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("10^4 jobs: skipped in -short and under -race")
	}
	heapInuse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	c := newHistoryCluster(t)
	c.run(t, 2*maxSettledJobs)
	early := heapInuse()
	for done := 2 * maxSettledJobs; done < 10000; done += maxSettledJobs {
		c.run(t, min(maxSettledJobs, 10000-done))
	}
	if late := heapInuse(); late > 2*early {
		t.Errorf("HeapInuse %d after 10^4 jobs, more than 2x the %d after %d", late, early, 2*maxSettledJobs)
	}
}
