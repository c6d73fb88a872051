package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.AutoExecutorExtensions

/** Prints the reproduced paper tables (DESIGN.md per-table index): the ones
  * named on the command line, or all of them.
  *
  * Usage: `spark-submit --class repro.jobs.Tables repro-jobs.jar [T3 T4 …]`;
  * the session wires the optimizer rule through `spark.sql.extensions`.
  */
object Tables {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("Tables")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.extensions", classOf[AutoExecutorExtensions].getName)
      .getOrCreate()
    val tables = repro.exp.Tables(spark)
    val names  = if (args.isEmpty) repro.exp.Tables.Names else args.toIndexedSeq
    names.foreach(name => println(tables.report(name)))
  }
}
