package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// refEvents is how many reference-kernel events are sampled per round
// (about 25 ms on a 2-vCPU virtual machine).
const refEvents = 1 << 15

// refKernel is the running reference-kernel child process (see
// refkernel/main.go for what it runs and why).
type refKernel struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// defaultRefPath is the kernel binary run.sh builds next to vgasperf.
func defaultRefPath() string {
	exe, err := os.Executable()
	if err != nil {
		return "vgasperf-ref"
	}
	return filepath.Join(filepath.Dir(exe), "vgasperf-ref")
}

// startRef starts the kernel at path. The child dies with vgasperf.
func startRef(path string) (*refKernel, error) {
	cmd := exec.Command(path)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	return &refKernel{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// nsPerEvent runs events steps of the kernel and returns its CPU time
// per event in nanoseconds.
func (k *refKernel) nsPerEvent(events int) (float64, error) {
	if _, err := fmt.Fprintln(k.in, events); err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	line, err := k.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("reference kernel: reply %q: %w", line, err)
	}
	return float64(ns) / float64(events), nil
}

// close ends the kernel's input and waits for it to exit.
func (k *refKernel) close() error {
	k.in.Close()
	return k.cmd.Wait()
}
