package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envStamp is printed with every result: a number that does not name its
// procs, pool and backend cannot be compared with another.
type envStamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	GraphSeed  int64   `json:"graphSeed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Backend    string  `json:"backend"`
	PoolPages  int     `json:"poolPages,omitempty"`
	PageSize   int     `json:"pageSize"`
	Clients    int     `json:"clients"`
	Scale      float64 `json:"scale"`
	Nodes      int     `json:"nodes"`
	Edges      int     `json:"edges"`
	GoVersion  string  `json:"goVersion"`
	Commit     string  `json:"commit"`
}

func stamp(cfg config, d *dataset) envStamp {
	e := envStamp{
		Workload: cfg.workload, Seed: cfg.seed, GraphSeed: graphSeed, Trace: cfg.trace, Seconds: cfg.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Backend: "memory", PageSize: pageSize, Clients: cfg.spec.clients,
		Scale: cfg.scale, Nodes: d.g.NumNodes(), Edges: d.g.NumEdges(),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	if cfg.spec.disk {
		e.Backend, e.PoolPages = "gtree", poolPages
	}
	return e
}

func (e envStamp) String() string {
	b, _ := json.Marshal(e)
	return "# env " + string(b)
}

// commit names the code under test: the git commit of the working
// directory, or "unknown" outside a git checkout.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
