(* The benchmark's metrics: names, units, and (end to end) the direction
   and regression bound that BENCHMARK.json records.  The smoke test
   checks that BENCHMARK.json and these tables agree. *)

type better = Lower | Higher

type e2e = { name : string; unit : string; better : better; bound : float }

let better_name = function Lower -> "lower" | Higher -> "higher"

(* [bound] is the share of the parent's median by which the metric may
   worsen before a change counts as a regression. *)
let end_to_end =
  [
    { name = "op_p50_us"; unit = "us"; better = Lower; bound = 0.25 };
    { name = "ops_per_s"; unit = "1/s"; better = Higher; bound = 0.25 };
    { name = "setup_s"; unit = "s"; better = Lower; bound = 0.25 };
    { name = "heap_peak_mb"; unit = "MB"; better = Lower; bound = 0.25 };
  ]

(* Per-layer metrics, derived from the traced run's span totals and
   counters.  A metric of a layer the workload never calls reads 0. *)
let per_layer : (string * string * better * ((string, Trace.stat) Hashtbl.t -> float)) list =
  let div a b = if b > 0.0 then a /. b else 0.0 in
  let st tbl name = Trace.stat tbl name in
  let ns_per_call name tbl = div (st tbl name).total_ns (float_of_int (st tbl name).calls) in
  let mean_ns name tbl = div (st tbl name).total_ns (float_of_int (st tbl name).spans) in
  let us name tbl = mean_ns name tbl /. 1e3 and ms name tbl = mean_ns name tbl /. 1e6 in
  let mean name _ = Trace.counter_mean name and sum name _ = Trace.counter_sum name in
  [
    ("numeric.rational_compare_ns", "ns", Lower, ns_per_call "numeric.compare");
    ("numeric.compare_sum_ns", "ns", Lower, ns_per_call "numeric.compare_sum");
    ("numeric.rational_add_ns", "ns", Lower, ns_per_call "numeric.add");
    ("numeric.rational_mul_ns", "ns", Lower, ns_per_call "numeric.mul");
    ("numeric.native_operand_share", "ratio", Higher, mean "numeric.native_operand_share");
    ("numeric.operand_bits_p50", "bits", Lower, mean "numeric.operand_bits_p50");
    ("cview.improves_ns", "ns", Lower, ns_per_call "cview.improves");
    ("cview.is_defector_ns", "ns", Lower, ns_per_call "cview.is_defector");
    ("cview.move_undo_ns", "ns", Lower, ns_per_call "cview.move_undo");
    ("mutation.apply_undo_ns", "ns", Lower, ns_per_call "mutation.apply_undo");
    ("mutation.per_batch", "count", Lower, mean "mutation.per_batch");
    ("cview.is_nash_us", "us", Lower, us "cview.is_nash");
    ( "repair.verify_share",
      "ratio",
      Lower,
      fun tbl -> div (mean_ns "cview.is_nash" tbl) (mean_ns "repair.repair_batch" tbl) );
    ("repair.moves_per_batch", "count", Lower, mean "repair.moves");
    ("repair.users_moved_per_batch", "count", Lower, mean "repair.users_moved");
    ("repair.seeded_links_mean", "count", Lower, mean "repair.seeded_links");
    ("repair.frontier_links_mean", "count", Lower, mean "repair.frontier_links");
    ("repair.saturated_share", "ratio", Lower, mean "repair.saturated");
    ("repair.fallback_count", "count", Lower, sum "repair.fallback");
    ("cview.packed_share", "ratio", Higher, mean "cview.packed");
    ("cview.spill_count", "count", Lower, sum "cview.spill");
    ("cview.first_defector_us", "us", Lower, us "cview.first_defector");
    ("cbr.proportional_start_us", "us", Lower, us "cbr.proportional_start");
    ("cbr.converge_us", "us", Lower, us "cbr.converge");
    ("cbr.steps_per_solve", "count", Lower, mean "cbr.steps");
    ("cbr.users_moved_per_solve", "count", Lower, mean "cbr.users_moved");
    ("cbr.us_per_step", "us", Lower, fun tbl -> div (us "cbr.converge" tbl) (Trace.counter_mean "cbr.steps"));
    ("cgame.of_capacities_us", "us", Lower, us "cgame.of_capacities");
    ("cview.social_cost1_us", "us", Lower, us "cview.social_cost1");
    ( "cli.per_batch_us",
      "us",
      Lower,
      fun tbl ->
        if (st tbl "cli.startup").spans = 0 then 0.0
        else div (us "cli.serve" tbl -. us "cli.startup" tbl) (Trace.counter_mean "cli.batches") );
    ("cli.output_bytes_per_batch", "bytes", Lower, mean "cli.output_bytes_per_batch");
    ("wire.encode_log_ms", "ms", Lower, ms "wire.encode_log");
    ("wire.decode_log_ms", "ms", Lower, ms "wire.decode_log");
    ("wire.decode_cgame_us", "us", Lower, us "wire.decode_cgame");
    ("wire.log_bytes", "bytes", Lower, mean "wire.log_bytes");
    ("cli.startup_ms", "ms", Lower, ms "cli.startup");
    ("load_dist.of_mixed_us", "us", Lower, us "load_dist.of_mixed");
    ("load_dist.expect_us", "us", Lower, us "load_dist.expect");
    ("load_dist.states", "count", Lower, mean "load_dist.states");
    ("load_dist.classes", "count", Lower, mean "load_dist.classes");
    ( "load_dist.states_per_ms",
      "1/ms",
      Higher,
      fun tbl -> div (Trace.counter_mean "load_dist.states") (ms "load_dist.of_mixed" tbl) );
    ("gc.minor_words_per_op", "words", Lower, mean "gc.minor_words");
    ("gc.promoted_words_per_op", "words", Lower, mean "gc.promoted_words");
    ("gc.major_collections", "count", Lower, sum "gc.major_collections");
    ("trace.overhead_pct", "%", Lower, mean "trace.overhead_pct");
  ]
