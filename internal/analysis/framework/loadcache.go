package framework

import (
	"sort"
	"strings"
	"sync"
)

// loadCache memoizes Load results so analysistest fixtures and tests sharing
// one configuration pay the go-list + type-check cost once per process. Keyed
// by the full configuration: working directory, test inclusion, environment,
// and pattern list.
var loadCache = struct {
	sync.Mutex
	m map[string]*loadEntry
}{m: map[string]*loadEntry{}}

type loadEntry struct {
	once sync.Once
	pkgs []*Package
	err  error
}

func loadKey(cfg LoadConfig, patterns []string) string {
	env := append([]string{}, cfg.Env...)
	sort.Strings(env)
	parts := []string{"dir=" + cfg.Dir}
	if cfg.Tests {
		parts = append(parts, "tests")
	}
	parts = append(parts, "env="+strings.Join(env, "\x00"), "pat="+strings.Join(patterns, "\x00"))
	return strings.Join(parts, "\x01")
}

// LoadCached is Load with process-lifetime memoization. Concurrent callers
// with the same configuration share one underlying Load; distinct
// configurations load independently and in parallel.
func LoadCached(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	key := loadKey(cfg, patterns)
	loadCache.Lock()
	e, ok := loadCache.m[key]
	if !ok {
		e = &loadEntry{}
		loadCache.m[key] = e
	}
	loadCache.Unlock()
	e.once.Do(func() { e.pkgs, e.err = Load(cfg, patterns...) })
	return e.pkgs, e.err
}
