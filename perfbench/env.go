package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"unsafe"
)

// environment is recorded beside every result, so a number can be read
// against the machine and the code that produced it.
type environment struct {
	CoresOnline    string `json:"cores_online"`
	NumCPU         int    `json:"num_cpu"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	AffinityMask   string `json:"cpu_affinity"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	SourceSHA256   string `json:"source_sha256"`
	Seed           int64  `json:"seed"`
	TempFS         string `json:"temp_fs"`
	InputRecords   int    `json:"input_records"`
	InputBytes     int64  `json:"input_bytes"`
	MemoryRecords  int    `json:"memory_records"`
	Shards         int    `json:"shards"`
	RunSeconds     int    `json:"run_seconds"`
	Workload       string `json:"workload"`
	ChildProcesses string `json:"child_processes"`
}

func describeEnv(root, workDir string) environment {
	e := environment{
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		AffinityMask:   affinity(),
		GoVersion:      runtime.Version(),
		Commit:         gitCommit(root),
		SourceSHA256:   sourceHash(root),
		TempFS:         fsType(workDir),
		ChildProcesses: "one fresh process per sort",
	}
	if b, err := os.ReadFile("/sys/devices/system/cpu/online"); err == nil {
		e.CoresOnline = strings.TrimSpace(string(b))
	} else {
		e.CoresOnline = "unknown"
	}
	return e
}

// affinity returns the process's CPU affinity mask as hex.
func affinity() string {
	var mask [16]uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(mask)*8), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return "unknown"
	}
	var s string
	for i := len(mask) - 1; i >= 0; i-- {
		s += fmt.Sprintf("%016x", mask[i])
	}
	return "0x" + strings.TrimLeft(s, "0")
}

// gitCommit reads the checked-out commit from .git when the tree is a git
// work tree; benchmark checkouts usually are not, and say so.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git work tree)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown (" + ref + ")"
}

// sourceHash fingerprints the Go sources and module files of the tree, so
// results from checkouts without git history still name the code they ran.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the file system holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
