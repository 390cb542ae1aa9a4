package sched

// SetReplayHook installs replayHook for the external tests and returns
// a function that restores the previous hook.
func SetReplayHook(h func(Config, TenantSpec) bool) (restore func()) {
	old := replayHook
	replayHook = h
	return func() { replayHook = old }
}

// RunReplayCounted is Run that also reports how many loop events were
// replayed from tapes rather than simulated.
func RunReplayCounted(cfg Config, specs []TenantSpec) (*Result, uint64, error) {
	s, err := New(cfg, specs)
	if err != nil {
		return nil, 0, err
	}
	res, err := s.Run()
	return res, s.replayed, err
}
