package trace

import (
	"bytes"
	"strings"
	"testing"

	"netbatch/internal/job"
)

func sampleTrace() *Trace {
	return &Trace{Jobs: []job.Spec{
		{ID: 1, Submit: 0, Work: 10, Cores: 1, MemMB: 1024, Priority: job.PriorityLow, Candidates: []int{0, 1}},
		{ID: 2, Submit: 5, Work: 20, Cores: 2, MemMB: 2048, OS: "linux", Priority: job.PriorityHigh, Candidates: []int{0}, TaskID: 3},
		{ID: 3, Submit: 9.5, Work: 30.25, Cores: 1, MemMB: 512, Priority: job.PriorityLow, Candidates: []int{1}},
	}}
}

func TestValidateOK(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDuplicateID(t *testing.T) {
	tr := sampleTrace()
	tr.Jobs[2].ID = 1
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v", err)
	}
}

// TestValidateIDsNotIncreasing covers the duplicate-ID check once IDs
// stop strictly increasing, where Validate falls back to a seen-set of
// every earlier ID.
func TestValidateIDsNotIncreasing(t *testing.T) {
	for _, c := range []struct {
		name string
		ids  []job.ID
		want string
	}{
		{"unique", []job.ID{3, 1, 2}, ""},
		{"uniqueAfterRun", []job.ID{1, 2, 7, 4, 5}, ""},
		{"repeatOfPrevious", []job.ID{1, 2, 2}, "duplicate job id 2"},
		{"repeatOfEarlier", []job.ID{1, 5, 9, 3, 5}, "duplicate job id 5"},
		{"repeatOfFirst", []job.ID{4, 6, 4}, "duplicate job id 4"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := &Trace{}
			for i, id := range c.ids {
				tr.Jobs = append(tr.Jobs, job.Spec{ID: id, Submit: float64(i), Work: 1, Cores: 1,
					Priority: job.PriorityLow, Candidates: []int{0}})
			}
			err := tr.Validate()
			if c.want == "" && err != nil {
				t.Fatalf("err = %v", err)
			}
			if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
	// A spec error at an index is reported before a repeated ID there,
	// and a repeated ID before an order violation.
	tr := sampleTrace()
	tr.Jobs[2].ID = 1
	tr.Jobs[2].Submit = 1
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate job id 1") {
		t.Fatalf("err = %v, want the duplicate first", err)
	}
	tr.Jobs[2].Cores = 0
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "non-positive cores") {
		t.Fatalf("err = %v, want the spec error first", err)
	}
}

func TestValidateOrder(t *testing.T) {
	tr := sampleTrace()
	tr.Jobs[1].Submit = 100
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "order") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateBadSpec(t *testing.T) {
	tr := sampleTrace()
	tr.Jobs[0].Work = -1
	if err := tr.Validate(); err == nil {
		t.Fatal("want error for bad spec")
	}
}

func TestHorizonAndTotals(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Horizon(); got != 9.5 {
		t.Fatalf("Horizon = %v", got)
	}
	if got := tr.TotalWork(); got != 60.25 {
		t.Fatalf("TotalWork = %v", got)
	}
	counts := tr.CountByPriority()
	if counts[job.PriorityLow] != 2 || counts[job.PriorityHigh] != 1 {
		t.Fatalf("CountByPriority = %v", counts)
	}
	empty := &Trace{}
	if empty.Horizon() != 0 {
		t.Fatal("empty horizon should be 0")
	}
}

func TestOfferedUtilization(t *testing.T) {
	tr := &Trace{Jobs: []job.Spec{
		{ID: 1, Submit: 0, Work: 50, Cores: 2, MemMB: 1, Priority: job.PriorityLow, Candidates: []int{0}},
		{ID: 2, Submit: 100, Work: 100, Cores: 1, MemMB: 1, Priority: job.PriorityLow, Candidates: []int{0}},
	}}
	// demand = 50*2 + 100 = 200 core-min over horizon 100 on 10 cores.
	if got := tr.OfferedUtilization(10); got != 0.2 {
		t.Fatalf("OfferedUtilization = %v", got)
	}
	if got := tr.OfferedUtilization(0); got != 0 {
		t.Fatalf("zero cores should give 0, got %v", got)
	}
	if got := (&Trace{}).OfferedUtilization(10); got != 0 {
		t.Fatalf("empty trace should give 0, got %v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
}

func TestJSONLSkipsBlankLines(t *testing.T) {
	input := `{"id":1,"submit":0,"work":5,"cores":1,"mem_mb":1,"priority":1,"candidates":[0]}

{"id":2,"submit":1,"work":5,"cores":1,"mem_mb":1,"priority":1,"candidates":[0]}
`
	tr, err := ReadJSONL(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
}

func TestJSONLBadLine(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("want error")
	}
}

func TestJSONLInvalidTrace(t *testing.T) {
	// Valid JSON, invalid spec (no candidates).
	input := `{"id":1,"submit":0,"work":5,"cores":1,"mem_mb":1,"priority":1}`
	if _, err := ReadJSONL(strings.NewReader(input)); err == nil {
		t.Fatal("want validation error")
	}
}

// TestWriteCSV pins the CSV layout tracegen -format csv writes: the
// header, then one row per job with space-separated candidates.
func TestWriteCSV(t *testing.T) {
	tr := &Trace{Jobs: []job.Spec{{
		ID: 3, Submit: 1.5, Work: 60.25, Cores: 2, MemMB: 4096, OS: "linux",
		Priority: job.PriorityHigh, TaskID: 7, Candidates: []int{4, 0}, Site: 1,
	}}}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "id,submit,work,cores,mem_mb,os,priority,task_id,candidates,site\n" +
		"3,1.5,60.25,2,4096,linux,2,7,4 0,1\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteCSV wrote\n%s\nwant\n%s", got, want)
	}
}

func assertTracesEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if d := diffTraces(want, got); d != "" {
		t.Fatal(d)
	}
}
