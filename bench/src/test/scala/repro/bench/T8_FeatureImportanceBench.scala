package repro.bench

import repro.core.{PlanFeaturizer, PpmKind}

/** T8 — Figure 15 + §5.7: permutation feature importance and the F0–F3
  * feature-ablation study.
  */
class T8_FeatureImportanceBench extends BenchSpec {

  test("T8a: input-size features dominate permutation importance") {
    val r = BenchHarness.tables.t8a
    BenchHarness.report("T8a_FeatureImportance", BenchHarness.tables.report("T8a"))

    val ranked = r.scores.map(_._1)
    // Paper Figure 15: input bytes and rows processed lead the ranking.
    assert(ranked.take(6).exists(f => PlanFeaturizer.F2.contains(f)),
      s"no input-size feature in measured top 6: ${ranked.take(6)}")
    r.scores.foreach { case (f, s) => assert(!s.isNaN, f) }
  }

  test("T8b: ablation — F1 tracks F0, input-size-free F3 degrades") {
    val r = BenchHarness.tables.t8b
    BenchHarness.report("T8b_Ablation", BenchHarness.tables.report("T8b"))

    def e8(set: String, kind: PpmKind): Double =
      r.eByN((set, kind)).find(_._1 == 8).get._2
    for (kind <- PpmKind.all) {
      val f0 = e8("F0", kind); val f1 = e8("F1", kind)
      val f2 = e8("F2", kind); val f3 = e8("F3", kind)
      // Paper: F1 ≈ F0; F2 and F3 worse than F0.
      assert(f1 < f0 * 1.6, s"${kind.name}: F1=$f1 should track F0=$f0")
      assert(math.max(f2, f3) >= f0 * 0.9, s"${kind.name}: reduced sets should not beat F0 ($f0 vs $f2/$f3)")
    }
  }
}
