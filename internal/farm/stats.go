package farm

import (
	"fmt"
	"time"
)

// Stats aggregates one batch (Engine.Run).
type Stats struct {
	// Jobs is the number of jobs submitted; Errors how many failed.
	Jobs, Errors uint64
	// Insts is the total retired instruction count across jobs.
	Insts uint64
	// Cycles and Stalls total the pipeline accounting of Pipelined jobs
	// (zero for purely functional batches).
	Cycles, Stalls uint64
	// PoolHits counts jobs served by a recycled machine; PoolMisses jobs
	// that had to allocate one. At steady state misses stay flat: no run
	// beyond the first |workers| allocates machine state.
	PoolHits, PoolMisses uint64
	// MemoHits counts jobs served from the memo cache (including jobs
	// collapsed onto an identical in-flight execution) without running.
	MemoHits uint64
	// Wall is the batch wall-clock time.
	Wall time.Duration
	// Workers is the concurrency the batch actually used.
	Workers int
}

// JobsPerSec is the batch throughput figure of merit.
func (s Stats) JobsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Jobs) / s.Wall.Seconds()
}

// PoolHitRate is the fraction of jobs served without allocating a machine.
func (s Stats) PoolHitRate() float64 {
	total := s.PoolHits + s.PoolMisses
	if total == 0 {
		return 0
	}
	return float64(s.PoolHits) / float64(total)
}

// String renders the one-line summary printed by cmd/qatfarm. The memo
// figure only appears when memoization served at least one job, so
// memo-less runs keep their historical format.
func (s Stats) String() string {
	line := fmt.Sprintf("farm: %d jobs (%d failed) on %d workers in %v: %.1f jobs/s, %d insts, %d cycles, %d stalls, pool hit rate %.0f%%",
		s.Jobs, s.Errors, s.Workers, s.Wall.Round(time.Millisecond),
		s.JobsPerSec(), s.Insts, s.Cycles, s.Stalls, 100*s.PoolHitRate())
	if s.MemoHits > 0 {
		line += fmt.Sprintf(", memo hits %d", s.MemoHits)
	}
	return line
}
