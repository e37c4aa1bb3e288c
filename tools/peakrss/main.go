//go:build unix

// Command peakrss runs a command and bounds its peak resident memory:
//
//	go run ./tools/peakrss -max-mb 512 -- ./daxbench -quick all
//
// It reads the child's ru_maxrss once the child exits, prints the peak
// on standard error, and exits 1 when the peak is above -max-mb (2 on a
// usage error). A child that fails passes its exit status through.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	maxMB := flag.Float64("max-mb", 0, "fail when the child's peak RSS exceeds this many MB")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: peakrss -max-mb N -- command [args...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 || *maxMB <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := exec.Command(flag.Arg(0), flag.Args()[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		fmt.Fprintln(os.Stderr, "peakrss:", err)
		os.Exit(2)
	}
	peak := peakMB(cmd.ProcessState.SysUsage().(*syscall.Rusage))
	fmt.Fprintf(os.Stderr, "peakrss: %s peaked at %.1f MB (bound %.0f MB)\n", filepath.Base(flag.Arg(0)), peak, *maxMB)
	if code := cmd.ProcessState.ExitCode(); code != 0 {
		os.Exit(code)
	}
	if peak > *maxMB {
		fmt.Fprintf(os.Stderr, "peakrss: peak RSS %.1f MB exceeds the %.0f MB bound\n", peak, *maxMB)
		os.Exit(1)
	}
}

// peakMB converts ru_maxrss to MB (2^20 bytes, as bench/host's
// peak_rss_mb): the kernel reports KiB on Linux and the BSDs, bytes on
// macOS.
func peakMB(ru *syscall.Rusage) float64 {
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return float64(ru.Maxrss) / (1 << 20)
	}
	return float64(ru.Maxrss) / (1 << 10)
}
