package repro.bench

/** T9 — §5.6: training and in-optimizer scoring overheads. */
class T9_OverheadsBench extends BenchSpec {

  test("T9: overheads are in the paper's millisecond regime") {
    val r = BenchHarness.tables.t9
    BenchHarness.report("T9_Overheads", BenchHarness.tables.report("T9"))

    // PPM fitting is sub-millisecond per query (paper ~0.3 ms).
    r.ppmFitMsPerQuery.values.foreach(ms => assert(ms < 10.0, s"fit $ms ms"))
    // Full-workload RF training is well under a minute (paper ~79 ms with
    // sklearn's C implementation; our pure-Scala forest is allowed slack).
    r.rfTrainMs.values.foreach(ms => assert(ms < 60000.0, s"train $ms ms"))
    // In-process inference is fast enough for the live query path.
    r.scoreMs.values.foreach(ms => assert(ms < 50.0, s"score $ms ms"))
    // Model artifact sizes in the paper's MB ballpark.
    r.modelSizeBytes.values.foreach(b => assert(b > 50000L && b < 50000000L, s"size $b"))
    assert(r.ruleScoringMs.exists(_ < 100.0))
  }
}
