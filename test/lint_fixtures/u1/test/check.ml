let sum = U1fix.Exported.test_only + U1fix.Exported.bench_only
