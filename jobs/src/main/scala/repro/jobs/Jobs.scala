package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{AutoExecutorExtensions, PpmKind}
import repro.exp._
import repro.tpcds.TpcdsLite

/** Shared bootstrap for the spark-submit entrypoints: one object per
  * reproduced paper table (DESIGN.md per-table index).
  *
  * Usage: `spark-submit --class repro.jobs.T3_TimePrediction repro-jobs.jar`;
  * sessions wire the optimizer rule through `spark.sql.extensions`.
  */
object JobSupport {

  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.extensions", classOf[AutoExecutorExtensions].getName)
      .getOrCreate()

  def sf100(spark: SparkSession): Workload =
    WorkloadRunner.build(spark, sf = 0.1, sfLabel = "SF100",
      dataDir = TpcdsLite.defaultBaseDir,
      cacheDir = TpcdsLite.defaultBaseDir.resolve("profiles"))

  def sf10(spark: SparkSession): Workload =
    WorkloadRunner.build(spark, sf = 0.01, sfLabel = "SF10",
      dataDir = TpcdsLite.defaultBaseDir,
      cacheDir = TpcdsLite.defaultBaseDir.resolve("profiles"))

  def folds(w: Workload): IndexedSeq[CrossValidation.TrainedFold] =
    CrossValidation.trainFolds(w, PpmKind.all, k = 5, repeats = 10, seed = 7)
}

/** T1 — Table 1 + Figure 5c: total-cores impact. */
object T1_TotalCores {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("T1_TotalCores")
    println(TotalCoresExperiment.report(TotalCoresExperiment.run(JobSupport.sf100(spark))))
  }
}

/** T2 — Table 2: parameter-model feature list. */
object T2_FeatureTable {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("T2_FeatureTable")
    println(FeatureTableExperiment.report(JobSupport.sf100(spark)))
  }
}

/** T3 — Figures 4/9: E(n) prediction accuracy under 10×5-fold CV. */
object T3_TimePrediction {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("T3_TimePrediction")
    val w     = JobSupport.sf100(spark)
    println(PredictionExperiment.report(PredictionExperiment.run(w, JobSupport.folds(w))))
  }
}

/** T4 — §5.3 / Figure 10: limited-slowdown configuration selection. */
object T4_LimitedSlowdown {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("T4_LimitedSlowdown")
    val w     = JobSupport.sf100(spark)
    println(SelectionExperiment.reportSlowdown(SelectionExperiment.runSlowdown(w, JobSupport.folds(w))))
  }
}

/** T5 — Figure 11: elbow-point distribution. */
object T5_Elbow {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("T5_Elbow")
    val w     = JobSupport.sf100(spark)
    println(SelectionExperiment.reportElbow(SelectionExperiment.runElbow(w, JobSupport.folds(w))))
  }
}

/** T6 — Figures 12/13 / §5.4: Rule vs DA(1,48) vs SA(48). */
object T6_AllocationPolicy {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("T6_AllocationPolicy")
    val w     = JobSupport.sf100(spark)
    val pred  = AllocationExperiment.predictedCounts(w, JobSupport.folds(w), repeat = 0, h = 1.05)
    println(AllocationExperiment.report(AllocationExperiment.run(w, pred)))
  }
}

/** T7 — Figure 14 / §5.5: cross-scale-factor generalization. */
object T7_CrossSf {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("T7_CrossSf")
    val w100  = JobSupport.sf100(spark)
    val w10   = JobSupport.sf10(spark)
    println(CrossSfExperiment.report(CrossSfExperiment.run(train = w100, test = w10)))
    println(CrossSfExperiment.report(CrossSfExperiment.run(train = w10, test = w100)))
  }
}

/** T8 — Figure 15 / §5.7: feature importance + ablation. */
object T8_FeatureImportance {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("T8_FeatureImportance")
    val w     = JobSupport.sf100(spark)
    println(ImportanceExperiment.reportImportance(
      ImportanceExperiment.runImportance(w, JobSupport.folds(w), nRepeats = 100)))
    println(ImportanceExperiment.reportAblation(ImportanceExperiment.runAblation(w, repeats = 5)))
  }
}

/** T9 — §5.6: training and scoring overheads. */
object T9_Overheads {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("T9_Overheads")
    println(OverheadsExperiment.report(OverheadsExperiment.run(JobSupport.sf100(spark), Some(spark))))
  }
}
