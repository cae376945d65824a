package main

import (
	"strconv"
	"syscall"
)

// fsType names the filesystem holding dir, which decides what an
// fsync costs.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
