package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// printFingerprint prints the host and configuration the numbers were
// measured on, one JSON object after "fingerprint ". The fsync policy is
// part of daemon_flags, which are printed as given.
func printFingerprint(e *env) {
	fp := map[string]any{
		"nproc":                runtime.NumCPU(),
		"daemon_gomaxprocs":    daemonProcs(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"go":                   runtime.Version(),
		"cpu":                  cpuModel(),
		"log_fs":               fsType(e.work),
		"daemon_flags":         strings.Join(e.flags, " "),
		"seed":                 e.seed,
	}
	b, _ := json.Marshal(fp) // plain values always marshal
	fmt.Println("fingerprint", string(b))
}

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

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
