package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// hostInfo is recorded with every result: the CPU count the run used
// and the one the host reports, the toolchain, the code, and the seed.
type hostInfo struct {
	CPUs     int    `json:"cpus"`
	NumCPU   int    `json:"num_cpu"`
	Go       string `json:"go"`
	Commit   string `json:"commit"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
}

// newHostInfo fills the record. Commit is the VCS revision the binary
// was built from (suffixed "+dirty" for a modified tree); outside a git
// checkout it is "src:" and a digest of the Go sources under srcRoot,
// which names the code just as well.
func newHostInfo(srcRoot, workload string, seed int64, trace bool) hostInfo {
	h := hostInfo{
		CPUs:     runtime.GOMAXPROCS(0),
		NumCPU:   runtime.NumCPU(),
		Go:       runtime.Version(),
		Workload: workload,
		Seed:     seed,
		Trace:    trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	if h.Commit == "" {
		h.Commit = "src:" + sourceDigest(srcRoot)
	}
	return h
}

// sourceDigest hashes every .go file and go.mod under root, in path
// order, skipping hidden and build directories.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
