"""repro.service — the batch/incremental checking service.

The paper's Section 7 artifact is a whole-program checker; this package
grows it from a one-shot CLI into a service that checks *corpora* of
``.tlp`` files fast, repeatedly, and in parallel:

* :mod:`repro.service.project` — the **project model**: discover and
  order a corpus (explicit ``tlp-project.json`` manifest or directory
  walk), with a content-addressed fingerprint per file and a
  declarations fingerprint for shared preludes, so unchanged work is
  identifiable across runs.
* :mod:`repro.service.cache` — the **persistent result cache**: an
  on-disk JSON store keyed by ``(file hash, declarations hash, checker
  version)`` holding per-file verdicts and diagnostics.  Warm re-checks
  of an unchanged corpus skip the Definition 16 pipeline entirely;
  probes surface as ``cache_probe`` trace events and
  ``service.cache.*`` counters through :mod:`repro.obs`.
* :mod:`repro.service.runner` — the **execution layer**: a
  ``concurrent.futures`` worker pool checking independent files in
  parallel, with per-worker telemetry shipped back to the coordinator
  and merged losslessly into the process-wide registry.
* :mod:`repro.service.daemon` — ``tlp-serve``: a long-lived check
  daemon speaking line-delimited JSON (``check`` / ``stats`` /
  ``invalidate`` / ``shutdown``) that keeps parsed modules — including
  their shared subtype-engine memo tables — hot across requests.

Console entry points: ``tlp-batch`` (one batch run over a corpus) and
``tlp-serve`` (the daemon).

The package root re-exports nothing: importing one submodule (say
``repro.service.project`` from ``tlp-check``) must not load the runner,
the analyzer and the process pool along with it.
"""
