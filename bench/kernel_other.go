//go:build !linux

package main

// kernelRelease is only known on Linux.
func kernelRelease() string { return "unknown" }
