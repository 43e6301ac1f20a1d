package sim

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"netbatch/internal/cluster"
	"netbatch/internal/job"
)

func queuedRT(id job.ID, prio job.Priority) *jobRT {
	spec := &job.Spec{
		ID: id, Work: 10, Cores: 1, MemMB: 1,
		Priority: prio, Candidates: []int{0},
	}
	return &jobRT{Live: job.Track(job.New(spec)), spec: spec}
}

// freeMachine returns a machine with the given free capacity.
func freeMachine(cores, memMB int) *machineRT {
	return &machineRT{m: &cluster.Machine{}, freeCores: cores, freeMemMB: memMB}
}

// anyFits has room for every job the tests queue; smallOnly has room
// for jobs under 1000 MB.
var (
	anyFits   = freeMachine(1<<10, 1<<30)
	smallOnly = freeMachine(1<<10, 999)
)

func TestWaitQueuePriorityThenFIFO(t *testing.T) {
	q := &waitQueue{}
	low1 := queuedRT(1, job.PriorityLow)
	low2 := queuedRT(2, job.PriorityLow)
	high1 := queuedRT(3, job.PriorityHigh)
	q.push(low1)
	q.push(low2)
	q.push(high1)
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	if got := q.peekFitting(anyFits); got != high1 {
		t.Fatalf("peek = job %d, want high-priority job 3", got.spec.ID)
	}
	q.remove(high1)
	if got := q.peekFitting(anyFits); got != low1 {
		t.Fatalf("peek = job %d, want FIFO-first low job 1", got.spec.ID)
	}
	q.remove(low1)
	if got := q.peekFitting(anyFits); got != low2 {
		t.Fatalf("peek = job %d, want job 2", got.spec.ID)
	}
	q.remove(low2)
	if q.Len() != 0 || q.peekFitting(anyFits) != nil {
		t.Fatal("queue should be empty")
	}
}

func TestWaitQueueSkipsUnfitting(t *testing.T) {
	q := &waitQueue{}
	big := queuedRT(1, job.PriorityLow)
	big.spec.MemMB = 1 << 20
	small := queuedRT(2, job.PriorityLow)
	q.push(big)
	q.push(small)
	if got := q.peekFitting(smallOnly); got != small {
		t.Fatal("should skip past the unfitting head")
	}
	// The skipped head stays queued.
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestWaitQueueRemoveIdempotent(t *testing.T) {
	q := &waitQueue{}
	rt := queuedRT(1, job.PriorityLow)
	q.push(rt)
	q.remove(rt)
	q.remove(rt) // second removal is a no-op
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestWaitQueueCompaction(t *testing.T) {
	q := &waitQueue{}
	var all []*jobRT
	for i := 0; i < 500; i++ {
		rt := queuedRT(job.ID(i+1), job.PriorityLow)
		q.push(rt)
		all = append(all, rt)
	}
	// Remove a large prefix to force head advancement and compaction.
	for _, rt := range all[:400] {
		q.remove(rt)
	}
	if got := q.peekFitting(anyFits); got != all[400] {
		t.Fatalf("peek = job %d, want 401", got.spec.ID)
	}
	f := q.classes[0]
	f.compact()
	if len(f.items)-f.head > 150 {
		t.Fatalf("compaction ineffective: %d live slots for 100 entries", len(f.items)-f.head)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestWaitQueueScanLimit(t *testing.T) {
	q := &waitQueue{}
	// More unfitting entries than the scan limit, then one that fits:
	// the fitting entry is beyond the window and must NOT be found
	// (documented head-of-line trade-off).
	for i := 0; i < fitScanLimit+10; i++ {
		rt := queuedRT(job.ID(i+1), job.PriorityLow)
		rt.spec.MemMB = 1 << 20
		q.push(rt)
	}
	fitting := queuedRT(999, job.PriorityLow)
	q.push(fitting)
	if got := q.peekFitting(smallOnly); got != nil {
		t.Fatalf("found job %d beyond the scan window", got.spec.ID)
	}
}

// Op codes of the FuzzWaitQueueDiff stream. Each op is four bytes
// (o, a, b, c): the code is o's low nibble, modulo wqNumOps, and the
// queue it addresses is o's high nibble, modulo wqQueues.
const (
	wqPush     = iota // push the a-th pushable job, or a new job of shape b when a is 255 or none is pushable
	wqBurst           // push a+1 new jobs, job i of shape b+i*c
	wqRemove          // remove the a-th queued job from its queue (it leaves for a machine or a transfer)
	wqMove            // wait-timeout move: remove the a-th queued job from its queue and push it here
	wqComplete        // complete the a-th job that is out of every queue
	wqPeek            // peek against machine a
	wqDispatch        // peek against machine a and remove the pick from this queue
	wqDrain           // dispatch against machine a up to b+1 times
	wqRebuild         // rebuild every queue from its saved layout, as a restore does
	wqNumOps
)

const (
	wqQueues  = 3
	wqMaxJobs = 4096
)

var wqOS = [...]string{"", "linux", "windows"}

// wqShape builds job i's spec from a shape byte: 1–4 cores, 512–4096
// MB, no OS or one of two, low or high priority. Shape 0 is a one-core
// low-priority job that runs anywhere; 0x40 the same on windows only.
func wqShape(i int, s byte) *job.Spec {
	return &job.Spec{
		ID:       job.ID(i + 1),
		Cores:    1 + int(s&3),
		MemMB:    512 * (1 + int(s>>2&7)),
		OS:       wqOS[int(s>>5&3)%3],
		Priority: job.PriorityLow + job.Priority(s>>7),
	}
}

// wqMachine builds a machine from a byte: 0–7 free cores, 0–7 GB free,
// linux or windows. 0x3f is a roomy linux machine, 0x7f a windows one.
func wqMachine(m byte) *machineRT {
	return &machineRT{
		m:         &cluster.Machine{OS: wqOS[1+int(m>>6&1)]},
		freeCores: int(m & 7),
		freeMemMB: 1024 * int(m>>3&7),
	}
}

// wqDiff drives live queues and reference queues with one op stream.
// Each side has its own job records (push and remove flip the records'
// queued flags), indexed alike.
type wqDiff struct {
	tb      testing.TB
	live    []*waitQueue
	ref     []*refWaitQueue
	jobs    []*jobRT
	refJobs []*jobRT
	// label is the queue of each job's last push.
	label []int
	// completed mirrors the saved job state a restore reads done from.
	completed []bool

	// What the stream exercised, for the corpus cases.
	oddShift     bool // a compaction shifted a FIFO by a head that is not a multiple of 64
	staleAndDone bool // a peek met open bits below head and open slots of completed jobs at or after it
	crossRevival bool // a dispatch picked a job through a slot in a queue other than the one it waits in
}

func newWQDiff(tb testing.TB) *wqDiff {
	d := &wqDiff{tb: tb}
	for range wqQueues {
		d.live = append(d.live, &waitQueue{})
		d.ref = append(d.ref, newRefWaitQueue())
	}
	return d
}

func (d *wqDiff) addJob(shape byte) int {
	i := len(d.jobs)
	spec := wqShape(i, shape)
	d.jobs = append(d.jobs, &jobRT{idx: i, spec: spec})
	d.refJobs = append(d.refJobs, &jobRT{idx: i, spec: spec})
	d.label = append(d.label, -1)
	d.completed = append(d.completed, false)
	return i
}

// pick returns the a-th job, cyclically, for which keep holds, or -1.
func (d *wqDiff) pick(a byte, keep func(i int) bool) int {
	var match []int
	for i := range d.jobs {
		if keep(i) {
			match = append(match, i)
		}
	}
	if len(match) == 0 {
		return -1
	}
	return match[int(a)%len(match)]
}

func (d *wqDiff) queued(i int) bool { return d.jobs[i].queued }

// out reports a job that has been queued and now sits on a machine or
// in transfer.
func (d *wqDiff) out(i int) bool { return d.label[i] >= 0 && !d.jobs[i].queued && !d.completed[i] }

func (d *wqDiff) push(i, q int) {
	d.live[q].push(d.jobs[i])
	d.ref[q].push(d.refJobs[i])
	d.label[i] = q
}

func (d *wqDiff) remove(i, q int) {
	d.live[q].remove(d.jobs[i])
	d.ref[q].remove(d.refJobs[i])
}

// peek compares both queues' picks for machine m and returns the
// picked job's index, or -1.
func (d *wqDiff) peek(q int, m byte) int {
	mach := wqMachine(m)
	lq := d.live[q]
	var lens []int
	for _, f := range lq.classes {
		lens = append(lens, len(f.items))
		d.staleAndDone = d.staleAndDone || staleAndDone(f)
	}
	got := lq.peekFitting(mach)
	want := d.ref[q].peekFitting(func(rt *jobRT) bool { return machineFits(mach, rt.spec) })
	for k, f := range lq.classes {
		if s := lens[k] - len(f.items); s%64 != 0 {
			d.oddShift = true
		}
	}
	gi, wi := -1, -1
	if got != nil {
		gi = got.idx
	}
	if want != nil {
		wi = want.idx
	}
	if gi != wi {
		d.tb.Fatalf("queue %d, machine %#x: peek = job %d, reference picks %d", q, m, gi, wi)
	}
	return gi
}

// staleAndDone reports whether f holds open bits below head together
// with open slots of completed jobs at or after it.
func staleAndDone(f *fifo) bool {
	stale, done := false, false
	for i := range f.items {
		if f.open[i>>6]&(1<<(i&63)) == 0 {
			continue
		}
		if i < f.head {
			stale = true
		} else if f.items[i] != nil && f.items[i].done {
			done = true
		}
	}
	return stale && done
}

func (d *wqDiff) dispatch(q int, m byte) bool {
	i := d.peek(q, m)
	if i < 0 {
		return false
	}
	if d.label[i] != q {
		d.crossRevival = true
	}
	d.remove(i, q)
	return true
}

// rebuild replaces every live queue and job record with one read back
// from the saved layout, the way loadPlacement restores them.
func (d *wqDiff) rebuild() {
	jobs := make([]*jobRT, len(d.jobs))
	for i, rt := range d.jobs {
		jobs[i] = &jobRT{idx: i, spec: rt.spec, queued: rt.queued, done: d.completed[i]}
	}
	for q, lq := range d.live {
		nq := &waitQueue{n: lq.n}
		for _, f := range lq.classes {
			nf := &fifo{prio: f.prio, head: f.head, items: make([]*jobRT, len(f.items))}
			for k, rt := range f.items {
				if rt != nil {
					nf.items[k] = jobs[rt.idx]
				}
			}
			nf.reopen()
			nq.classes = append(nq.classes, nf)
		}
		d.live[q] = nq
	}
	d.jobs = jobs
}

func (d *wqDiff) step(o, a, b, c byte) {
	q := int(o>>4) % wqQueues
	switch int(o&15) % wqNumOps {
	case wqPush:
		i := -1
		if a != 255 {
			i = d.pick(a, func(i int) bool { return !d.queued(i) && !d.completed[i] })
		}
		if i < 0 && len(d.jobs) < wqMaxJobs {
			i = d.addJob(b)
		}
		if i >= 0 {
			d.push(i, q)
		}
	case wqBurst:
		for k := 0; k <= int(a) && len(d.jobs) < wqMaxJobs; k++ {
			d.push(d.addJob(b+byte(k)*c), q)
		}
	case wqRemove:
		if i := d.pick(a, d.queued); i >= 0 {
			d.remove(i, d.label[i])
		}
	case wqMove:
		if i := d.pick(a, d.queued); i >= 0 {
			d.remove(i, d.label[i])
			d.push(i, q)
		}
	case wqComplete:
		if i := d.pick(a, d.out); i >= 0 {
			d.completed[i] = true
			d.jobs[i].done = true
		}
	case wqPeek:
		d.peek(q, a)
	case wqDispatch:
		d.dispatch(q, a)
	case wqDrain:
		for k := 0; k <= int(b) && d.dispatch(q, a); k++ {
		}
	case wqRebuild:
		d.rebuild()
	}
}

// check compares every queue's length, priorities, heads and slots as
// job indices with the reference, checks that the open bitmap covers
// exactly the slots and keeps every slot that can revive open, and
// compares the jobs' queued flags.
func (d *wqDiff) check() {
	idx := func(rt *jobRT) int {
		if rt == nil {
			return -1
		}
		return rt.idx
	}
	for q, lq := range d.live {
		rq := d.ref[q]
		if lq.Len() != rq.Len() {
			d.tb.Fatalf("queue %d: Len = %d, reference %d", q, lq.Len(), rq.Len())
		}
		var prios []job.Priority
		for _, f := range lq.classes {
			prios = append(prios, f.prio)
		}
		if !slices.Equal(prios, rq.prios) {
			d.tb.Fatalf("queue %d: priorities %v, reference %v", q, prios, rq.prios)
		}
		for k, prio := range rq.prios {
			f, rf := lq.classes[k], rq.classes[prio]
			if f.head != rf.head {
				d.tb.Fatalf("queue %d priority %v: head %d, reference %d", q, prio, f.head, rf.head)
			}
			if len(f.items) != len(rf.items) {
				d.tb.Fatalf("queue %d priority %v: %d slots, reference %d", q, prio, len(f.items), len(rf.items))
			}
			for k := range f.items {
				if idx(f.items[k]) != idx(rf.items[k]) {
					d.tb.Fatalf("queue %d priority %v slot %d: job %d, reference %d",
						q, prio, k, idx(f.items[k]), idx(rf.items[k]))
				}
			}
			n := len(f.items)
			if len(f.open) != (n+63)/64 {
				d.tb.Fatalf("queue %d priority %v: %d bitmap words for %d slots", q, prio, len(f.open), n)
			}
			if n&63 != 0 && f.open[len(f.open)-1]>>(n&63) != 0 {
				d.tb.Fatalf("queue %d priority %v: open bits past slot %d", q, prio, n)
			}
			for k := f.head; k < n; k++ {
				if rt := f.items[k]; rt != nil && !rt.done && f.open[k>>6]&(1<<(k&63)) == 0 {
					d.tb.Fatalf("queue %d priority %v: slot %d of job %d closed before its job completed",
						q, prio, k, rt.idx)
				}
			}
		}
	}
	for i := range d.jobs {
		if d.jobs[i].queued != d.refJobs[i].queued {
			d.tb.Fatalf("job %d: queued = %v, reference %v", i, d.jobs[i].queued, d.refJobs[i].queued)
		}
	}
}

func (d *wqDiff) run(data []byte) {
	for k := 0; k+3 < len(data); k += 4 {
		d.step(data[k], data[k+1], data[k+2], data[k+3])
		d.check()
	}
}

// FuzzWaitQueueDiff differentially fuzzes the wait queue against the
// reference queue in queue_reference_test.go, which visits every slot
// from head on every peek. The op stream runs over three queues whose
// jobs come in two priorities and move between the queues, so a
// tombstoned slot can revive through another queue's push, and it
// pushes, removes (a dispatch elsewhere or a transfer), moves a job on
// wait timeout, completes jobs, peeks and dispatches against a machine
// drawn from the stream, and rebuilds the live queues from their saved
// layout. After every op, picks, lengths, heads and slots must match.
// The committed corpus holds the cases of TestWaitQueueDiffCorpus.
func FuzzWaitQueueDiff(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		newWQDiff(t).run(data)
	})
}

// wqCase is a committed FuzzWaitQueueDiff corpus entry and the case it
// must reach.
type wqCase struct {
	data    []byte
	reached func(*wqDiff) bool
}

// wqCorpus returns the committed corpus by file name, built from
// readable op scripts.
func wqCorpus() map[string]wqCase {
	op := func(code, q int, a, b, c byte) []byte { return []byte{byte(q<<4 | code), a, b, c} }
	script := func(ops ...[]byte) []byte { return slices.Concat(ops...) }
	repeat := func(n int, o []byte) []byte { return slices.Repeat(o, n) }
	const linux, windows = 0x3f, 0x7f
	return map[string]wqCase{
		// 60 jobs, a windows-only job, 50 jobs; dispatch the first 60
		// and ten more behind the blocked head, complete those ten and
		// clear their bits, dispatch the windows job: the next peek
		// shifts the FIFO by a head of 71 (7 past a word boundary).
		"shift-odd-head": {script(
			op(wqBurst, 0, 59, 0, 0),
			op(wqBurst, 0, 0, 0x40, 0),
			op(wqBurst, 0, 49, 0, 0),
			op(wqDrain, 0, linux, 69, 0),
			repeat(10, op(wqComplete, 0, 60, 0, 0)),
			op(wqPeek, 0, linux, 0, 0),
			op(wqDispatch, 0, windows, 0, 0),
			op(wqDrain, 0, linux, 255, 0),
			op(wqRebuild, 0, 0, 0, 0),
			op(wqBurst, 0, 3, 0, 0),
			op(wqDrain, 0, linux, 255, 0),
		), func(d *wqDiff) bool { return d.oddShift }},
		// A windows job at the head, a completed job behind it, another
		// windows job, 40 jobs. The head is dispatched and completed
		// without a scan passing either slot, so both stay open below
		// head; eight more jobs behind the blocked second windows job
		// complete, and the next peek meets both kinds of slot.
		"done-around-head": {script(
			op(wqBurst, 0, 0, 0x40, 0),
			op(wqBurst, 0, 0, 0, 0),
			op(wqBurst, 0, 0, 0x40, 0),
			op(wqBurst, 0, 39, 0, 0),
			op(wqDispatch, 0, linux, 0, 0),
			op(wqComplete, 0, 0, 0, 0),
			op(wqDispatch, 0, windows, 0, 0),
			op(wqComplete, 0, 0, 0, 0),
			op(wqDrain, 0, linux, 7, 0),
			repeat(8, op(wqComplete, 0, 0, 0, 0)),
			op(wqPeek, 0, linux, 0, 0),
			op(wqRebuild, 0, 0, 0, 0),
			op(wqDrain, 0, linux, 255, 0),
		), func(d *wqDiff) bool { return d.staleAndDone }},
		// A high- and a low-priority job in queue 0; the high one moves
		// to queue 1 on wait timeout, which revives its old slot, and
		// queue 0 dispatches it through that slot. Queue 1 then finds
		// it gone, and a rebuilt queue 0 still holds the low one.
		"revive-cross-queue": {script(
			op(wqBurst, 0, 1, 0x80, 0x80),
			op(wqMove, 1, 0, 0, 0),
			op(wqDispatch, 0, linux, 0, 0),
			op(wqPeek, 1, linux, 0, 0),
			op(wqRebuild, 0, 0, 0, 0),
			op(wqDispatch, 0, linux, 0, 0),
		), func(d *wqDiff) bool { return d.crossRevival }},
	}
}

// TestWaitQueueDiffCorpus checks that each committed FuzzWaitQueueDiff
// corpus entry is its script and reaches its case.
func TestWaitQueueDiffCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWaitQueueDiff")
	for name, c := range wqCorpus() {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
			lit, ok2 := strings.CutSuffix(lit, ")\n")
			data, err := strconv.Unquote(lit)
			if !ok || !ok2 || err != nil {
				t.Fatalf("not a one-[]byte corpus file: %q", raw)
			}
			if data != string(c.data) {
				t.Fatalf("corpus file differs from its script; rewrite it with\n%s",
					fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", c.data))
			}
			d := newWQDiff(t)
			d.run(c.data)
			if !c.reached(d) {
				t.Fatal("the script no longer reaches its case")
			}
		})
	}
}

// wqSlotMix builds n jobs in the slot mix measured over a full
// experiments run: per 1,000 slots about 860 completed, 64 running,
// 6 suspended and 70 queued. Queued jobs need two cores, and the
// first slot holds one, so compaction never moves the head.
func wqSlotMix(n int) []*jobRT {
	r := rand.New(rand.NewPCG(26, 1000))
	jobs := make([]*jobRT, n)
	for i := range jobs {
		spec := &job.Spec{ID: job.ID(i + 1), Cores: 2, MemMB: 512, Priority: job.PriorityLow}
		rt := &jobRT{idx: i, spec: spec}
		switch k := r.IntN(1000); {
		case k < 860:
			rt.done = true
		case k < 930:
			rt.queued = true
		}
		jobs[i] = rt
	}
	jobs[0].queued, jobs[0].done = true, false
	return jobs
}

// BenchmarkWaitQueuePeek times one capacity handoff scan on a FIFO of
// 4,096 slots in the measured slot mix against a machine with one free
// core, which no queued job fits, so every peek scans its full window.
// The open leg's first peek, before the timer, closes the completed
// jobs' slots, as the first scan after their completion does.
func BenchmarkWaitQueuePeek(b *testing.B) {
	const slots = 4096
	mach := freeMachine(1, 1<<20)
	// fill pushes the slot mix, keeping each job's queued flag.
	fill := func(push func(*jobRT)) {
		for _, rt := range wqSlotMix(slots) {
			queued := rt.queued
			push(rt)
			rt.queued = queued
		}
	}
	b.Run("reference", func(b *testing.B) {
		q := newRefWaitQueue()
		fill(q.push)
		fits := func(rt *jobRT) bool { return machineFits(mach, rt.spec) }
		q.peekFitting(fits)
		b.ReportAllocs()
		for b.Loop() {
			if q.peekFitting(fits) != nil {
				b.Fatal("a queued job fits")
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		q := &waitQueue{}
		fill(q.push)
		q.peekFitting(mach)
		b.ReportAllocs()
		for b.Loop() {
			if q.peekFitting(mach) != nil {
				b.Fatal("a queued job fits")
			}
		}
	})
}
