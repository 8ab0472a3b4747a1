package core

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// ProfileConfig names the pprof outputs a run should produce; every path is
// optional (empty disables that profile).
type ProfileConfig struct {
	// CPU is sampled for the whole run.
	CPU string
	// Mem is a heap profile written at stop, after a settling GC.
	Mem string
	// Mutex records contended mutex hold sites (SetMutexProfileFraction(1)
	// for the run); written at stop.
	Mutex string
	// Block records goroutine blocking sites — channel waits, sync waits —
	// (SetBlockProfileRate(1) for the run); written at stop.
	Block string
}

// StartProfiles begins every profile configured in cfg and returns a stop
// function that finishes them and writes the at-exit profiles. With an empty
// config the stop function is a no-op. Mutex and block profiling rates are
// restored to off by stop. Typical CLI use:
//
//	stop, err := core.StartProfiles(core.ProfileConfig{CPU: *cpuProfile, ...})
//	if err != nil { ... }
//	defer stop()
func StartProfiles(cfg ProfileConfig) (stop func() error, err error) {
	var cpuFile *os.File
	if cfg.CPU != "" {
		cpuFile, err = os.Create(cfg.CPU)
		if err != nil {
			return nil, fmt.Errorf("core: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("core: cpu profile: %w", err)
		}
	}
	if cfg.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if cfg.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if cfg.Mem != "" {
			f, err := os.Create(cfg.Mem)
			if err != nil {
				return fmt.Errorf("core: mem profile: %w", err)
			}
			runtime.GC() // settle the heap so the profile reflects live data
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("core: mem profile: %w", err)
			}
		}
		if cfg.Mutex != "" {
			err := writeLookupProfile("mutex", cfg.Mutex)
			runtime.SetMutexProfileFraction(0)
			if err != nil {
				return err
			}
		}
		if cfg.Block != "" {
			err := writeLookupProfile("block", cfg.Block)
			runtime.SetBlockProfileRate(0)
			if err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// writeLookupProfile writes one of the runtime's named profiles to path.
func writeLookupProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("core: %s profile: not available", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %s profile: %w", name, err)
	}
	err = p.WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("core: %s profile: %w", name, err)
	}
	return nil
}
