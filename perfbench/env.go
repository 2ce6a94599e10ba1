package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// envStamp describes the machine and source a result was measured on.
type envStamp struct {
	nproc, gomaxprocs int
	goVersion, cpu    string
	commit            string
	workdirFS         string
}

// stampEnvironment collects the stamp; workdir is the directory the serve
// workload's journal and store live under.
func stampEnvironment(workdir string) envStamp {
	return envStamp{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		cpu:        cpuModel(),
		commit:     sourceCommit(),
		workdirFS:  filesystemOf(workdir),
	}
}

func (e envStamp) String() string {
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s serve_fs=%s; "+
		"parallel scaling was not observed (at most 2 busy load-generator goroutines, at most 2 server workers)",
		e.nproc, e.gomaxprocs, e.goVersion, e.cpu, e.commit, e.workdirFS)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceCommit names the measured source: the git commit when the checkout
// is a repository, and always a digest of the Go sources, so results from a
// plain source tree stay attributable.
func sourceCommit() string {
	tree := "tree:" + sourceDigest(".")
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return tree
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return shortHash(ref) + "," + tree
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return shortHash(strings.TrimSpace(string(b))) + "," + tree
	}
	return tree
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// sourceDigest hashes the paths and contents of every .go and go.mod file
// under root, skipping hidden directories (the build directory among them).
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
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
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// cpuTicks reads the host's aggregate CPU time from /proc/stat: the ticks
// stolen by other guests of the hypervisor, and all ticks. ok is false where
// the file is missing or malformed.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; guest time is already
	// counted in user.
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealShare returns the share of CPU time other guests stole since the
// given cpuTicks reading, or -1 when it cannot be read.
func stealShare(steal0, total0 uint64) float64 {
	steal, total, ok := cpuTicks()
	if !ok || total <= total0 {
		return -1
	}
	return float64(steal-steal0) / float64(total-total0)
}

// filesystemOf names the filesystem type holding dir.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}
