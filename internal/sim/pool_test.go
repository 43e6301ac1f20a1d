package sim

import (
	"testing"

	"netbatch/internal/cluster"
	"netbatch/internal/job"
)

// buildPoolRT constructs runtime state for a one-pool platform.
func buildPoolRT(t *testing.T, classes ...cluster.MachineClass) (*poolRT, []machineRT) {
	t.Helper()
	plat, err := cluster.Build([]cluster.PoolConfig{{Classes: classes}})
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]machineRT, plat.NumMachines())
	for i := 0; i < plat.NumMachines(); i++ {
		m := plat.Machine(i)
		machines[i] = machineRT{m: m, freeCores: m.Cores, freeMemMB: m.MemMB}
	}
	return newPoolRT(plat, plat.Pool(0), machines), machines
}

func TestPoolRTClassGrouping(t *testing.T) {
	p, machines := buildPoolRT(t,
		cluster.MachineClass{Count: 3, Cores: 2, MemMB: 4096, Speed: 1.0},
		cluster.MachineClass{Count: 2, Cores: 4, MemMB: 8192, Speed: 1.25},
	)
	if len(p.classes) != 2 {
		t.Fatalf("classes = %d", len(p.classes))
	}
	// Free stacks pop lowest machine ID first.
	spec := &job.Spec{Cores: 1, MemMB: 1024}
	if got := p.classes[0].findAvailable(machines, spec); got != 0 {
		t.Fatalf("first available in class 0 = %d", got)
	}
	if got := p.classes[1].findAvailable(machines, spec); got != 3 {
		t.Fatalf("first available in class 1 = %d", got)
	}
}

func TestPoolRTStaticEligibility(t *testing.T) {
	p, _ := buildPoolRT(t,
		cluster.MachineClass{Count: 1, Cores: 2, MemMB: 4096, Speed: 1.0, OS: "linux"},
		cluster.MachineClass{Count: 1, Cores: 8, MemMB: 16384, Speed: 1.0, OS: "windows"},
	)
	cases := []struct {
		name string
		spec job.Spec
		want bool
	}{
		{"fitsLinux", job.Spec{Cores: 2, MemMB: 4096, OS: "linux"}, true},
		{"fitsAnyOS", job.Spec{Cores: 8, MemMB: 16384}, true},
		{"tooBigForLinux", job.Spec{Cores: 4, MemMB: 1, OS: "linux"}, false},
		{"unknownOS", job.Spec{Cores: 1, MemMB: 1, OS: "plan9"}, false},
		{"tooMuchMemory", job.Spec{Cores: 1, MemMB: 1 << 20}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := p.fits(&c.spec); got != c.want {
				t.Fatalf("fits = %v, want %v", got, c.want)
			}
		})
	}
}

func TestMachineClassFindAvailableDropsExhausted(t *testing.T) {
	p, machines := buildPoolRT(t,
		cluster.MachineClass{Count: 3, Cores: 1, MemMB: 1024, Speed: 1.0},
	)
	cls := &p.classes[0]
	// Exhaust machine 0 (top of the stack).
	machines[0].freeCores = 0
	spec := &job.Spec{Cores: 1, MemMB: 512}
	if got := cls.findAvailable(machines, spec); got != 1 {
		t.Fatalf("available = %d, want 1", got)
	}
	// The exhausted entry was dropped and unmarked.
	if machines[0].inFree {
		t.Fatal("exhausted machine still marked inFree")
	}
	for _, mid := range cls.free {
		if mid == 0 {
			t.Fatal("exhausted machine still in free stack")
		}
	}
}

func TestMachineClassFindAvailableMemoryBound(t *testing.T) {
	p, machines := buildPoolRT(t,
		cluster.MachineClass{Count: 2, Cores: 4, MemMB: 4096, Speed: 1.0},
	)
	cls := &p.classes[0]
	// Machine 0 has cores but its memory is mostly consumed.
	machines[0].freeMemMB = 100
	spec := &job.Spec{Cores: 1, MemMB: 2048}
	if got := cls.findAvailable(machines, spec); got != 1 {
		t.Fatalf("available = %d, want memory-rich machine 1", got)
	}
	// Machine 0 must remain in the stack (it still has free cores).
	found := false
	for _, mid := range cls.free {
		if mid == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("partially-occupied machine dropped from free stack")
	}
}

func TestFindVictimPicksMostRecentLowest(t *testing.T) {
	p, machines := buildPoolRT(t,
		cluster.MachineClass{Count: 3, Cores: 1, MemMB: 4096, Speed: 1.0},
	)
	mkRunning := func(id job.ID, prio job.Priority, mid int) *jobRT {
		spec := &job.Spec{ID: id, Work: 100, Cores: 1, MemMB: 1024, Priority: prio, Candidates: []int{0}}
		rt := &jobRT{Live: job.Track(job.New(spec)), spec: spec}
		j := &rt.Live
		if err := j.Enqueue(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := j.Start(1, mid, 1.0); err != nil {
			t.Fatal(err)
		}
		machines[mid].freeCores--
		machines[mid].freeMemMB -= spec.MemMB
		p.pushRunning(rt)
		return rt
	}
	v1 := mkRunning(1, job.PriorityLow, 0)
	v2 := mkRunning(2, job.PriorityLow, 1) // most recent low
	_ = v1

	newSpec := &job.Spec{ID: 9, Cores: 1, MemMB: 1024, Priority: job.PriorityHigh, Candidates: []int{0}}
	victim := p.findVictim(newSpec, machines)
	if victim != v2 {
		t.Fatalf("victim = %v, want most recently started job 2", victim.spec.ID)
	}
	// Victim was removed from the running stack.
	for _, rt := range p.running[job.PriorityLow] {
		if rt == v2 {
			t.Fatal("victim still on running stack")
		}
	}
}

func TestFindVictimRespectsMemoryAndPriority(t *testing.T) {
	p, machines := buildPoolRT(t,
		cluster.MachineClass{Count: 1, Cores: 1, MemMB: 2048, Speed: 1.0},
	)
	spec := &job.Spec{ID: 1, Work: 100, Cores: 1, MemMB: 1024, Priority: job.PriorityHigh, Candidates: []int{0}}
	rt := &jobRT{Live: job.Track(job.New(spec)), spec: spec}
	j := &rt.Live
	if err := j.Enqueue(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(1, 0, 1.0); err != nil {
		t.Fatal(err)
	}
	machines[0].freeCores--
	machines[0].freeMemMB -= 1024
	p.pushRunning(rt)

	// Equal priority: no victim.
	if v := p.findVictim(&job.Spec{Cores: 1, MemMB: 1, Priority: job.PriorityHigh}, machines); v != nil {
		t.Fatal("equal-priority job found a victim")
	}
	// Higher priority but memory won't fit even after release.
	huge := &job.Spec{Cores: 1, MemMB: 1 << 20, Priority: job.PriorityHigh + 1}
	if v := p.findVictim(huge, machines); v != nil {
		t.Fatal("victim found despite impossible memory")
	}
	// Higher priority, fits with released memory.
	ok := &job.Spec{Cores: 1, MemMB: 2048, Priority: job.PriorityHigh + 1}
	if v := p.findVictim(ok, machines); v != rt {
		t.Fatal("expected the running high job as victim of higher priority")
	}
}

func TestVictimWorksMemoryModes(t *testing.T) {
	mach := machineRT{
		m:         &cluster.Machine{Cores: 2, MemMB: 4096, OS: "linux"},
		freeCores: 1,
		freeMemMB: 512,
	}
	vspec := &job.Spec{Cores: 1, MemMB: 2048, Priority: job.PriorityLow, Candidates: []int{0}}
	victim := &jobRT{Live: job.Track(job.New(vspec)), spec: vspec}
	need := &job.Spec{Cores: 2, MemMB: 2048, Priority: job.PriorityHigh}

	// Suspension swaps the victim out, releasing its memory: fits.
	if !victimWorks(victim, &mach, need) {
		t.Fatal("want fit when suspension releases memory")
	}
	// 512 free plus the victim's 2048 is short of 3000.
	if victimWorks(victim, &mach, &job.Spec{Cores: 2, MemMB: 3000, Priority: job.PriorityHigh}) {
		t.Fatal("want no fit beyond the released memory")
	}
	// OS mismatch never fits.
	osSpec := &job.Spec{Cores: 1, MemMB: 1, OS: "windows", Priority: job.PriorityHigh}
	if victimWorks(victim, &mach, osSpec) {
		t.Fatal("OS mismatch should not fit")
	}
}
