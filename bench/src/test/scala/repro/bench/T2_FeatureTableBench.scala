package repro.bench

import repro.core.PlanFeaturizer

/** T2 — paper Table 2: the parameter-model feature list. */
class T2_FeatureTableBench extends BenchSpec {

  test("T2: feature table matches the paper's structure") {
    BenchHarness.report("T2_FeatureTable", BenchHarness.tables.report("T2"))

    // Paper Table 2: 14 per-operator counts + total ops + depth + sources +
    // input bytes + rows processed.
    assert(PlanFeaturizer.operatorKinds.size == 14)
    Seq("num_operators", "max_depth", "num_sources", "input_bytes", "rows_processed")
      .foreach(f => assert(PlanFeaturizer.featureNames.contains(f)))

    // Input-size features must actually scale ~10x between the SFs.
    val idx = PlanFeaturizer.featureNames.indexOf("input_bytes")
    val b100 = BenchHarness.tables.sf100.queries.map(_.features(idx)).sum
    val b10  = BenchHarness.tables.sf10.queries.map(_.features(idx)).sum
    assert(b100 / b10 > 3.0, s"input bytes should grow strongly with SF: $b100 vs $b10")
  }
}
