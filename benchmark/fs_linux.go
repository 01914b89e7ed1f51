package main

import (
	"fmt"
	"syscall"
)

// fsType names the filesystem under path, so a run that would measure
// tmpfs instead of a disk says so.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown filesystem: " + err.Error()
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs: fsync costs nothing here"
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("filesystem type %#x", uint32(st.Type))
	}
}
