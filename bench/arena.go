package main

import (
	"errors"
	"fmt"
	"syscall"
)

// arenaChunk is the size of one arena mapping.
const arenaChunk = 1 << 20

// arena is append-only storage for a window's pregenerated inputs, mapped
// outside the Go heap. The collector paces itself by the heap's size, so
// inputs kept in the heap would be ballast: the system under test would
// collect less often than it does on its own, by an amount that grows with
// the window and that moved the serving latencies from run to run.
type arena struct {
	chunks [][]byte
	used   int // bytes used of the last chunk
}

// arenaLoc is where an arena holds one input; the zero value holds none.
type arenaLoc struct{ chunk, off, n uint32 }

// add copies s into the arena and returns where it is.
func (a *arena) add(s string) (arenaLoc, error) {
	if len(s) == 0 || len(s) > arenaChunk {
		return arenaLoc{}, fmt.Errorf("arena: cannot hold an input of %d bytes", len(s))
	}
	if len(a.chunks) == 0 || a.used+len(s) > arenaChunk {
		m, err := syscall.Mmap(-1, 0, arenaChunk, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return arenaLoc{}, fmt.Errorf("arena: %w", err)
		}
		a.chunks, a.used = append(a.chunks, m), 0
	}
	loc := arenaLoc{chunk: uint32(len(a.chunks) - 1), off: uint32(a.used), n: uint32(len(s))}
	a.used += copy(a.chunks[loc.chunk][a.used:], s)
	return loc, nil
}

// get returns a heap copy of the input at loc, or "" for the zero loc.
func (a *arena) get(loc arenaLoc) string {
	if loc.n == 0 {
		return ""
	}
	return string(a.chunks[loc.chunk][loc.off : loc.off+loc.n])
}

// free unmaps the arena; it can be used again afterwards.
func (a *arena) free() error {
	var errs []error
	for _, c := range a.chunks {
		errs = append(errs, syscall.Munmap(c))
	}
	a.chunks, a.used = nil, 0
	return errors.Join(errs...)
}
