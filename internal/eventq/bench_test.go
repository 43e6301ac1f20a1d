package eventq_test

import (
	"testing"

	"netbatch/internal/benchsnap"
)

// The bodies live in internal/benchsnap, which records them as the
// eventq/schedule_pop, eventq/cancel and eventq/kind_chains cells.

func BenchmarkScheduleAndPop(b *testing.B) { benchsnap.QueueScheduleAndPop(b) }

func BenchmarkCancel(b *testing.B) { benchsnap.QueueCancel(b) }

func BenchmarkKindChains(b *testing.B) { benchsnap.QueueKindChains(b) }
