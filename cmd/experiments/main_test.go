package main

// The reproduced paper numbers are pinned: report's output must match
// experiments_output.txt at the repository root byte for byte. A change to
// any layer a section exercises (AoB kernels, the assembler, the pipeline,
// re, rex) shows up here as a line diff naming the section. Regenerate
// deliberately with:
//
//	go test ./cmd/experiments -run TestReportGolden -update
//
// and review the golden diff like any other code change.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite experiments_output.txt at the repository root")

func TestReportGolden(t *testing.T) {
	var got bytes.Buffer
	report(&got)
	path := filepath.Join("..", "..", "experiments_output.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, got.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "## ") {
			section = w
		}
		if g != w {
			t.Fatalf("report differs from %s at line %d (section %q):\n got: %q\nwant: %q\n(got %d lines, want %d)",
				path, i+1, section, g, w, len(gl), len(wl))
		}
	}
	t.Fatalf("report differs from %s", path)
}
