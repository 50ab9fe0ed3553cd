package xferman

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestRecycledJobRecords runs maxSettledJobs + 100 jobs in batches,
// each job waited on by two goroutines at once: both must get its exact
// Result, whatever record it was refilled into. While a batch is
// unread the manager keeps at most maxSettledJobs + the batch, and
// afterwards at most maxSettledJobs. Every forgotten ID then answers
// ErrUnknownJob from Wait and Result, never a later job's Result.
func TestRecycledJobRecords(t *testing.T) {
	const jobs, batch = maxSettledJobs + 100, 50
	c := newHistoryCluster(t)
	ctx := context.Background()
	kept := func() int {
		c.m.mu.Lock()
		defer c.m.mu.Unlock()
		return len(c.m.jobs)
	}
	var ids []JobID
	for len(ids) < jobs {
		first := len(ids)
		for i := 0; i < batch; i++ {
			id, err := c.m.Submit(ctx, c.job)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if n := kept(); n > maxSettledJobs+batch {
			t.Fatalf("manager keeps %d jobs with %d unread, want <= %d", n, batch, maxSettledJobs+batch)
		}
		for _, id := range ids[first:] {
			var res [2]Result
			var errs [2]error
			var wg sync.WaitGroup
			for w := range res {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res[w], errs[w] = c.m.Wait(ctx, id)
				}()
			}
			wg.Wait()
			for w := range res {
				if errs[w] != nil || res[w].ID != id || res[w].Status != Succeeded {
					t.Fatalf("waiter %d on job %d: %+v, %v", w, id, res[w], errs[w])
				}
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Fatalf("job %d: waiters got %+v and %+v", id, res[0], res[1])
			}
		}
		if n := kept(); n > maxSettledJobs {
			t.Fatalf("manager keeps %d jobs with none unread, want <= %d", n, maxSettledJobs)
		}
	}
	forgotten := len(ids) - maxSettledJobs
	for _, id := range ids[:forgotten] {
		if res, err := c.m.Result(id); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("Result on forgotten job %d: %+v, %v; want ErrUnknownJob", id, res, err)
		}
		if res, err := c.m.Wait(ctx, id); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("Wait on forgotten job %d: %+v, %v; want ErrUnknownJob", id, res, err)
		}
	}
	for _, id := range ids[forgotten:] {
		if res, err := c.m.Result(id); err != nil || res.ID != id {
			t.Fatalf("kept job %d: %+v, %v", id, res, err)
		}
	}
}

// selectHook is a context that reports when Wait, having looked the job
// up and found it unsettled, starts waiting on it.
type selectHook struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (h *selectHook) Done() <-chan struct{} {
	h.once.Do(func() { close(h.waiting) })
	return h.Context.Done()
}

func newSelectHook(ctx context.Context) *selectHook {
	return &selectHook{Context: ctx, waiting: make(chan struct{})}
}

// workerless is a manager with no workers: the test takes each queued
// job and settles it as a worker does.
func workerless(queue int) *Manager {
	return &Manager{queue: make(chan JobID, queue), jobs: make(map[JobID]*tracked)}
}

var workerlessJob = Job{Src: Endpoint{Addr: "src"}, Dst: Endpoint{Addr: "dst"}, SrcName: "a", DstName: "b"}

func submitJob(t *testing.T, m *Manager) JobID {
	t.Helper()
	id, err := m.Submit(context.Background(), workerlessJob)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// publish takes the next queued job and publishes it Succeeded under
// mu, as a worker does, returning its ID, record and wake channel; wake
// on that channel is the worker's last step.
func publish(m *Manager) (JobID, *tracked, chan struct{}) {
	id := <-m.queue
	m.mu.Lock()
	defer m.mu.Unlock()
	tr := m.jobs[id]
	tr.result.Status = Succeeded
	return id, tr, tr.wake
}

// settle publishes the next queued job, wakes its waiters and returns
// its ID.
func settle(m *Manager) JobID {
	id, _, c := publish(m)
	wake(c)
	return id
}

// refill reads the published job x and then maxSettledJobs more jobs,
// which forgets x, and submits job y, which must get x's record.
func refill(t *testing.T, m *Manager, x JobID, xRecord *tracked) (y JobID) {
	t.Helper()
	if _, err := m.Result(x); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxSettledJobs; i++ {
		id := submitJob(t, m)
		settle(m)
		if _, err := m.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	y = submitJob(t, m)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jobs[y] != xRecord {
		t.Fatalf("job %d did not get forgotten job %d's record", y, x)
	}
	return y
}

type waited struct {
	res Result
	err error
}

// waitAsync runs Wait on its own goroutine and returns where its answer
// arrives.
func waitAsync(ctx context.Context, m *Manager, id JobID) <-chan waited {
	out := make(chan waited, 1)
	go func() {
		res, err := m.Wait(ctx, id)
		out <- waited{res, err}
	}()
	return out
}

// TestWaitOnRecycledRecord: a Wait that looked a job up before other
// readers read it and maxSettledJobs later reads forgot it, handing its
// record to a new job, answers ErrUnknownJob when it wakes, not the new
// job's Result. The manager runs no workers; the test publishes job X
// once its waiter has started waiting, and holds X between publishing
// its result and waking, the window in which that can happen.
func TestWaitOnRecycledRecord(t *testing.T) {
	m := workerless(1)
	ctx := context.Background()
	x := submitJob(t, m)
	hook := newSelectHook(ctx)
	woke := waitAsync(hook, m, x)
	<-hook.waiting
	_, xRecord, xWake := publish(m)
	y := refill(t, m, x, xRecord)
	wake(xWake)
	if w := <-woke; !errors.Is(w.err, ErrUnknownJob) {
		t.Fatalf("Wait on job %d after its record went to job %d: %+v, %v; want ErrUnknownJob", x, y, w.res, w.err)
	}
	if res, err := m.Result(x); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Result on forgotten job %d: %+v, %v; want ErrUnknownJob", x, res, err)
	}
	<-m.queue
}

// TestWaitSettledJobIgnoresDoneContext: Wait on a job that has already
// settled returns its result even when ctx is done. It used to choose
// at random between the job's closed channel and ctx, answering
// ctx.Err() about half the time.
func TestWaitSettledJobIgnoresDoneContext(t *testing.T) {
	m := workerless(1)
	id := submitJob(t, m)
	settle(m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		if res, err := m.Wait(ctx, id); err != nil || res.ID != id || res.Status != Succeeded {
			t.Fatalf("Wait %d on settled job %d with a done ctx: %+v, %v", i, id, res, err)
		}
	}
}

// TestWaitCancelledWaiterLeavesToken: of two waiters on one job, one
// whose ctx ends before the job settles returns ctx.Err() without
// taking the job's token, and the other still gets the result.
func TestWaitCancelledWaiterLeavesToken(t *testing.T) {
	m := workerless(1)
	id := submitJob(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	hook := newSelectHook(ctx)
	cancelled := waitAsync(hook, m, id)
	other := newSelectHook(context.Background())
	kept := waitAsync(other, m, id)
	<-hook.waiting
	<-other.waiting
	cancel()
	if w := <-cancelled; !errors.Is(w.err, context.Canceled) {
		t.Fatalf("cancelled waiter on job %d: %+v, %v; want context.Canceled", id, w.res, w.err)
	}
	settle(m)
	select {
	case w := <-kept:
		if w.err != nil || w.res.ID != id || w.res.Status != Succeeded {
			t.Fatalf("waiter on job %d: %+v, %v", id, w.res, w.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("waiter on job %d never woke once it settled", id)
	}
}

// awaitParked returns once n goroutines are blocked in Wait's select.
func awaitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "xferman.(*Manager).Wait(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
	}
	t.Fatalf("fewer than %d goroutines blocked in Wait after 10s", n)
}

// TestWaitStaleWaiterPassesTokenOn: a waiter left over from the
// earlier job of a refilled record shares the record's channel with
// the new job's waiter, and may take the new job's token. It must put
// the token back before answering ErrUnknownJob, or the new job's
// waiter sleeps on. The stale waiter blocks first, so the channel
// hands it the token first.
func TestWaitStaleWaiterPassesTokenOn(t *testing.T) {
	m := workerless(1)
	x := submitJob(t, m)
	stale := waitAsync(context.Background(), m, x)
	awaitParked(t, 1)
	_, xRecord, _ := publish(m) // never woken: the token is the new job's
	y := refill(t, m, x, xRecord)
	fresh := waitAsync(context.Background(), m, y)
	awaitParked(t, 2)
	settle(m)
	timeout := time.After(10 * time.Second)
	select {
	case w := <-fresh:
		if w.err != nil || w.res.ID != y || w.res.Status != Succeeded {
			t.Fatalf("waiter on job %d: %+v, %v", y, w.res, w.err)
		}
	case <-timeout:
		t.Fatalf("waiter on job %d never woke: the stale waiter on job %d kept its token", y, x)
	}
	select {
	case w := <-stale:
		if !errors.Is(w.err, ErrUnknownJob) {
			t.Fatalf("Wait on job %d after its record went to job %d: %+v, %v; want ErrUnknownJob", x, y, w.res, w.err)
		}
	case <-timeout:
		t.Fatalf("stale waiter on job %d never woke", x)
	}
}

// TestSpareRecordsOutlastInterleaving: however many jobs are submitted
// before any of them is read, up to maxSpareRecords, the next as many
// Submits refill the records their reads forgot, so a job's allocation
// does not depend on how concurrent submitters interleave. With a
// single spare, all but one of them made a fresh record. The manager
// runs no workers; the test settles each job as a worker does.
func TestSpareRecordsOutlastInterleaving(t *testing.T) {
	// The queue holds the largest round, submitted before any job is taken.
	m := &Manager{queue: make(chan JobID, max(2, maxSpareRecords)), jobs: make(map[JobID]*tracked)}
	ctx := context.Background()
	job := Job{Src: Endpoint{Addr: "src"}, Dst: Endpoint{Addr: "dst"}, SrcName: "a", DstName: "b"}
	// round submits n jobs, then settles and reads each.
	round := func(n int) {
		t.Helper()
		ids := make([]JobID, n)
		for i := range ids {
			id, err := m.Submit(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		for range ids {
			settle(m)
		}
		for _, id := range ids {
			if _, err := m.Wait(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < maxSettledJobs; i++ {
		round(1)
	}
	for _, n := range []int{2, maxSpareRecords} {
		m.mu.Lock()
		forgotten := map[*tracked]bool{}
		for i := 0; i < n; i++ {
			forgotten[m.settled[(m.settledHead+i)%maxSettledJobs]] = true
		}
		m.mu.Unlock()
		round(n)
		for i := 0; i < n; i++ {
			id, err := m.Submit(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			m.mu.Lock()
			refilled := forgotten[m.jobs[id]]
			m.mu.Unlock()
			if !refilled {
				t.Fatalf("after %d jobs in flight at once, Submit %d of %d made a fresh record", n, i+1, n)
			}
		}
		for i := 0; i < n; i++ {
			id := settle(m)
			if _, err := m.Wait(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
}
