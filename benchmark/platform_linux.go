package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem holding dir: what an msync of a region file
// there actually costs depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xef53: "ext4", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("%#x", st.Type)
}
