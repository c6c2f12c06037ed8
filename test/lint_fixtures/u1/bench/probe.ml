let probe () = U1fix.Exported.bench_only
