(* Tests for the statistics helpers: Welford vs direct two-pass
   computation, quantiles, histograms and table layout. *)

let prop name ?(count = 200) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let close = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Welford                                                             *)

let test_welford_basic () =
  let w = List.fold_left Stats.Welford.add Stats.Welford.empty [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "count" 4 (Stats.Welford.count w);
  close "mean" 2.5 (Stats.Welford.mean w);
  close "variance" (5.0 /. 3.0) (Stats.Welford.variance w);
  close "min" 1.0 (Stats.Welford.min w);
  close "max" 4.0 (Stats.Welford.max w)

let test_welford_single () =
  let w = Stats.Welford.add Stats.Welford.empty 7.0 in
  close "mean" 7.0 (Stats.Welford.mean w);
  close "variance" 0.0 (Stats.Welford.variance w)

let test_welford_empty () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Welford.mean: no samples") (fun () ->
      ignore (Stats.Welford.mean Stats.Welford.empty))

let welford_properties =
  [
    prop "welford matches two-pass mean/variance"
      QCheck2.Gen.(list_size (int_range 2 50) (float_bound_inclusive 1000.0))
      (fun xs ->
        let n = List.length xs in
        let w = List.fold_left Stats.Welford.add Stats.Welford.empty xs in
        let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
        let var =
          List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. float_of_int (n - 1)
        in
        Float.abs (Stats.Welford.mean w -. mean) < 1e-6
        && Float.abs (Stats.Welford.variance w -. var) < 1e-6);
  ]

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)

let test_summary_known () =
  let s = Stats.Summary.of_array [| 4.0; 1.0; 3.0; 2.0 |] in
  Alcotest.(check int) "count" 4 s.count;
  close "mean" 2.5 s.mean;
  close "min" 1.0 s.min;
  close "max" 4.0 s.max;
  close "median" 2.5 s.median;
  close "p25" 1.75 s.p25;
  close "p75" 3.25 s.p75

let test_summary_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_array: empty sample") (fun () ->
      ignore (Stats.Summary.of_array [||]))

let test_quantile_edges () =
  let xs = [| 10.0; 20.0; 30.0 |] in
  close "q0 is min" 10.0 (Stats.Summary.quantile xs 0.0);
  close "q1 is max" 30.0 (Stats.Summary.quantile xs 1.0);
  close "q0.5 is median" 20.0 (Stats.Summary.quantile xs 0.5);
  Alcotest.check_raises "p out of range" (Invalid_argument "Summary.quantile: p outside [0, 1]")
    (fun () -> ignore (Stats.Summary.quantile xs 1.5))

let test_quantile_does_not_mutate () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.Summary.quantile xs 0.5);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] xs

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)

let test_histogram_binning () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Stats.Histogram.add h) [ 0.0; 1.9; 2.0; 5.5; 9.99 ];
  Alcotest.(check (array int)) "bins" [| 2; 1; 1; 0; 1 |] (Stats.Histogram.counts h);
  Alcotest.(check int) "count" 5 (Stats.Histogram.count h);
  Stats.Histogram.add h (-1.0);
  Stats.Histogram.add h 10.0;
  Alcotest.(check int) "underflow" 1 (Stats.Histogram.underflow h);
  Alcotest.(check int) "overflow (hi is exclusive)" 1 (Stats.Histogram.overflow h)

let test_histogram_validation () =
  Alcotest.check_raises "bins" (Invalid_argument "Histogram.create: bins must be positive")
    (fun () -> ignore (Stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0));
  Alcotest.check_raises "range" (Invalid_argument "Histogram.create: hi must exceed lo")
    (fun () -> ignore (Stats.Histogram.create ~lo:1.0 ~hi:1.0 ~bins:3))

let test_histogram_render () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:2.0 ~bins:2 in
  List.iter (Stats.Histogram.add h) [ 0.5; 0.6; 1.5 ];
  let s = Stats.Histogram.render h in
  Alcotest.(check bool) "has bars" true (String.length s > 0 && String.contains s '#')

(* ------------------------------------------------------------------ *)
(* Regression                                                          *)

let test_regression_exact_line () =
  let fit = Stats.Regression.linear [ (1.0, 3.0); (2.0, 5.0); (3.0, 7.0) ] in
  close "slope" 2.0 fit.slope;
  close "intercept" 1.0 fit.intercept;
  close "perfect fit" 1.0 fit.r_squared

let test_regression_power_law () =
  (* y = 3·x² sampled exactly: slope 2, intercept log 3. *)
  let points = List.map (fun x -> (x, 3.0 *. (x ** 2.0))) [ 1.0; 2.0; 4.0; 8.0 ] in
  let fit = Stats.Regression.log_log points in
  close "exponent" 2.0 fit.slope;
  close "coefficient" (log 3.0) fit.intercept;
  close "r2" 1.0 fit.r_squared

let test_regression_validation () =
  Alcotest.check_raises "one point" (Invalid_argument "Regression.linear: need at least two points")
    (fun () -> ignore (Stats.Regression.linear [ (1.0, 1.0) ]));
  Alcotest.check_raises "vertical" (Invalid_argument "Regression.linear: all x values coincide")
    (fun () -> ignore (Stats.Regression.linear [ (1.0, 1.0); (1.0, 2.0) ]));
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Regression.log_log: coordinates must be positive") (fun () ->
      ignore (Stats.Regression.log_log [ (0.0, 1.0); (2.0, 2.0) ]))

let regression_properties =
  [
    prop "recovers a noiseless affine relation"
      QCheck2.Gen.(triple (float_range (-5.0) 5.0) (float_range (-5.0) 5.0)
                     (list_size (int_range 3 20) (float_range (-100.0) 100.0)))
      (fun (a, b, xs) ->
        let xs = List.sort_uniq compare xs in
        List.length xs < 2
        ||
        let fit = Stats.Regression.linear (List.map (fun x -> (x, a +. (b *. x))) xs) in
        Float.abs (fit.slope -. b) < 1e-6 && Float.abs (fit.intercept -. a) < 1e-5);
  ]

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_layout () =
  let t = Stats.Table.create [ "name"; "value" ] in
  Stats.Table.add_row t [ "alpha"; "1" ];
  Stats.Table.add_row t [ "b"; "22222" ];
  let rendered = Stats.Table.render t in
  let lines = String.split_on_char '\n' rendered in
  (match lines with
   | header :: sep :: rows ->
     Alcotest.(check bool) "header contains name" true
       (String.length header >= 4 && String.sub header 0 4 = "name");
     Alcotest.(check bool) "separator dashes" true (String.for_all (fun c -> c = '-' || c = ' ') sep);
     Alcotest.(check int) "two data rows plus trailing" 3 (List.length rows)
   | _ -> Alcotest.fail "unexpected layout");
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: expected 2 cells, got 1")
    (fun () -> Stats.Table.add_row t [ "only" ])

let test_table_rows_in_order () =
  let t = Stats.Table.create [ "i" ] in
  List.iter (fun i -> Stats.Table.add_row t [ string_of_int i ]) [ 1; 2; 3 ];
  let rendered = Stats.Table.render t in
  let idx c =
    match String.index_opt rendered c with
    | Some i -> i
    | None -> Alcotest.failf "missing cell %c" c
  in
  Alcotest.(check bool) "1 before 2 before 3" true (idx '1' < idx '2' && idx '2' < idx '3')

let suite =
  [
    ("welford basic", `Quick, test_welford_basic);
    ("welford single", `Quick, test_welford_single);
    ("welford empty", `Quick, test_welford_empty);
    ("summary known", `Quick, test_summary_known);
    ("summary empty", `Quick, test_summary_empty);
    ("quantile edges", `Quick, test_quantile_edges);
    ("quantile pure", `Quick, test_quantile_does_not_mutate);
    ("histogram binning", `Quick, test_histogram_binning);
    ("histogram validation", `Quick, test_histogram_validation);
    ("histogram render", `Quick, test_histogram_render);
    ("regression exact line", `Quick, test_regression_exact_line);
    ("regression power law", `Quick, test_regression_power_law);
    ("regression validation", `Quick, test_regression_validation);
    ("table layout", `Quick, test_table_layout);
    ("table order", `Quick, test_table_rows_in_order);
  ]

let () =
  Alcotest.run "stats"
    [ ("unit", suite); ("properties", welford_properties); ("regression", regression_properties) ]
