package server

// Request validation defers the register-file geometry to
// qat.Config.Canonical and adds only the wire rules on top. This pins the
// agreement over the same table internal/qat's TestCanonicalAgreement
// walks.

import (
	"testing"

	"tangled/internal/qat"
)

// TestValidateMatchesCanonical: a request passes Validate exactly when
// Canonical accepts its geometry (for "auto": the width is not negative)
// and the wire rules allow it: pipelined runs only on dense.
func TestValidateMatchesCanonical(t *testing.T) {
	for _, b := range []string{"", qat.BackendDense, qat.BackendRE, "auto", "fpga"} {
		for _, ways := range []int{-1, 0, 4, 16, 17, 24, 25} {
			for _, constRegs := range []bool{false, true} {
				for _, mode := range []string{"functional", "pipelined"} {
					r := RunRequest{Src: "sys", Mode: mode, Backend: b, Ways: ways, ConstRegs: constRegs}
					var geometry bool
					if b == "auto" {
						geometry = ways >= 0
					} else {
						_, err := qat.Config{Ways: ways, ConstantRegs: constRegs, Backend: b}.Canonical()
						geometry = err == nil
					}
					dense := mode == "functional" || b == "" || b == qat.BackendDense
					want := geometry && dense
					if err := r.Validate(); (err == nil) != want {
						t.Fatalf("%+v: Validate=%v, want accepted=%v", r, err, want)
					}
				}
			}
		}
	}
}
