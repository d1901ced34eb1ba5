// Package opsui serves the embedded live operations dashboard: a static
// single-page app (no build step, no external assets) that polls the
// metrics registry's JSON exposition and renders per-endpoint latency
// quantiles, request rates, auditd queue depth and — when a monitord API
// is mounted on the same server — a live alert feed.
//
// The assets ship inside the daemon binaries via embed.FS, so `go build`
// fails if a referenced file goes missing and a deployed daemon has no
// runtime file dependencies. Mount with Handler:
//
//	mux.Handle("/dashboard/", opsui.Handler("/dashboard/"))
//
// The page expects /metrics.json (and optionally /v1/alerts) on the same
// origin.
package opsui

import (
	"embed"
	"io/fs"
	"net/http"
)

//go:embed static
var assets embed.FS

// Handler serves the dashboard under the given mount prefix (which must
// end in "/", e.g. "/dashboard/").
func Handler(prefix string) http.Handler {
	sub, err := fs.Sub(assets, "static")
	if err != nil {
		// The embed directive guarantees static/ exists; reaching this is a
		// build-system bug worth failing loudly over.
		panic("opsui: embedded assets missing: " + err.Error())
	}
	return http.StripPrefix(prefix, http.FileServerFS(sub))
}
