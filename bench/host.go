package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"runtime/debug"
)

// provenance stamps a result with what produced it: the workload's
// seed and config hash, the host, and the source revision. Host times
// compare only between runs with the same host fields.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	ConfigSHA256 string `json:"config_sha256"`
	CPUModel     string `json:"cpu_model"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Revision     string `json:"vcs_revision"`
	Modified     string `json:"vcs_modified"`
}

func newProvenance(workload string, seed uint64, config string) *provenance {
	sum := sha256.Sum256([]byte(config))
	p := &provenance{
		Workload:     workload,
		Seed:         seed,
		ConfigSHA256: hex.EncodeToString(sum[:]),
		CPUModel:     "unknown",
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		// A build outside a git checkout carries no VCS stamp.
		Revision: "unknown",
		Modified: "unknown",
	}
	if m, err := procField("/proc/cpuinfo", "model name"); err == nil {
		p.CPUModel = m
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}
