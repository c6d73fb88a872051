package perfbench

import java.nio.file.{Files, Path}
import org.apache.spark.sql.SparkSession

/** Local Spark sessions whose temporary files stay under the work directory. */
object Session {

  /** Cores on this machine; Spark never gets more threads than this. */
  val cores: Int = Runtime.getRuntime.availableProcessors()

  /** A fresh `local[cores]` session configured like the repository's test
    * and bench harness (broadcast joins off), plus `extra` confs.
    */
  def start(work: Path, extra: Map[String, String] = Map.empty): SparkSession = {
    val local = Files.createDirectories(work.resolve("spark-local"))
    val b = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", local.toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
    extra.foreach { case (k, v) => b.config(k, v) }
    b.getOrCreate()
  }

  /** Stop the active session so the next [[start]] builds a new one. */
  def stop(spark: SparkSession): Unit = {
    spark.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }

  /** Facts about the machine a result or fixture came from. */
  def machine(spark: Option[SparkSession]): Map[String, String] = Map(
    "nproc"        -> cores.toString,
    "heap_max_mb"  -> (Runtime.getRuntime.maxMemory / (1024 * 1024)).toString,
    "java"         -> System.getProperty("java.version"),
    "spark"        -> org.apache.spark.SPARK_VERSION,
    "scala"        -> scala.util.Properties.versionNumberString,
    "os_arch"      -> System.getProperty("os.arch"),
  ) ++ spark.map(s => "spark_master" -> s.sparkContext.master)
}
