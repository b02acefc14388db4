package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostStamp identifies where and on what a result was measured: the
// processors the run could use, the toolchain, the code (the VCS
// revision when the checkout is a git work tree, and always a digest of
// its Go sources) and the CPU model.
func hostStamp(root string) string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest(root), cpuModel())
}

// commit is the checkout's VCS revision; run.sh sets it at link time.
var commit = "none"

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even in a checkout without VCS data.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
