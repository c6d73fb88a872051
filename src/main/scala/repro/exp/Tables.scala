package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.PpmKind

/** The reproduced paper tables T1–T9 (DESIGN.md per-table index), wired in
  * one place. It owns every setting the tables share: the 10×5-fold CV at seed
  * 7 on SF100, T6 on repeat 0 at H = 1.05, and T8 with 100 permutation
  * repeats and a 5-repeat ablation, whose F0 arm is the CV's first 5
  * repeats. Each result is computed once, on first use; T4 and T5 read the
  * same [[testCurves]], and only T7 forces `sf10`.
  * T9 also times the optimizer rule when a `spark` session is given.
  */
final class Tables(val sf100: Workload, sf10Workload: => Workload, spark: Option[SparkSession] = None) {

  lazy val sf10: Workload = sf10Workload

  /** The paper's 10-repeated 5-fold CV models on SF100 (§5.1). */
  lazy val folds: IndexedSeq[CrossValidation.TrainedFold] =
    CrossValidation.trainFolds(sf100, PpmKind.all, k = 5, repeats = 10, seed = 7)

  lazy val testCurves: IndexedSeq[SelectionExperiment.TestCurve] = SelectionExperiment.testCurves(sf100, folds)

  lazy val t1: TotalCoresExperiment.Result            = TotalCoresExperiment.run(sf100)
  lazy val t3: PredictionExperiment.Result            = PredictionExperiment.run(sf100, folds)
  lazy val t4: SelectionExperiment.SlowdownResult     = SelectionExperiment.runSlowdown(testCurves)
  lazy val t5: SelectionExperiment.ElbowResult        = SelectionExperiment.runElbow(testCurves)
  lazy val t6: AllocationExperiment.Result            =
    AllocationExperiment.run(sf100, AllocationExperiment.predictedCounts(sf100, folds, repeat = 0, h = 1.05))
  /** Trained on SF100 and tested on SF10, then the reverse. */
  lazy val t7: (CrossSfExperiment.Result, CrossSfExperiment.Result) =
    (CrossSfExperiment.run(train = sf100, test = sf10), CrossSfExperiment.run(train = sf10, test = sf100))
  lazy val t8a: ImportanceExperiment.ImportanceResult = ImportanceExperiment.runImportance(sf100, folds, nRepeats = 100)
  lazy val t8b: ImportanceExperiment.AblationResult   = ImportanceExperiment.runAblation(sf100, folds.filter(_.repeat < 5))
  lazy val t9: OverheadsExperiment.Result             = OverheadsExperiment.run(sf100, spark)

  /** The text of table `name`: one of [[Tables.Names]], where "T8" is T8a
    * then T8b, or one of those two parts.
    */
  def report(name: String): String = name match {
    case "T1"  => TotalCoresExperiment.report(t1)
    case "T2"  => FeatureTableExperiment.report(sf100)
    case "T3"  => PredictionExperiment.report(t3)
    case "T4"  => SelectionExperiment.reportSlowdown(t4)
    case "T5"  => SelectionExperiment.reportElbow(t5)
    case "T6"  => AllocationExperiment.report(t6)
    case "T7"  => CrossSfExperiment.report(t7._1) + CrossSfExperiment.report(t7._2)
    case "T8"  => report("T8a") + report("T8b")
    case "T8a" => ImportanceExperiment.reportImportance(t8a)
    case "T8b" => ImportanceExperiment.reportAblation(t8b)
    case "T9"  => OverheadsExperiment.report(t9)
    case _     => throw new NoSuchElementException(s"no table $name; known: ${Tables.Names.mkString(", ")}, T8a, T8b")
  }
}

object Tables {

  /** Every table, in paper order. */
  val Names: IndexedSeq[String] = (1 to 9).map(i => s"T$i")

  /** The tables over the two profiled workloads, "SF100" (sf=0.1) and
    * "SF10" (sf=0.01), the paper's SF=100/SF=10 stand-ins, at the default
    * data and profile-cache directories under `target/tpcds-lite`.
    */
  def apply(spark: SparkSession): Tables =
    new Tables(workload(spark, 0.1, "SF100"), workload(spark, 0.01, "SF10"), Some(spark))

  private def workload(spark: SparkSession, sf: Double, label: String): Workload = {
    Console.err.println(s"[tables] building $label workload (sf=$sf, 103 queries)…")
    WorkloadRunner.build(spark, sf, label)
  }
}
