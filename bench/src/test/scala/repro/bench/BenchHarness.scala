package repro.bench

import java.nio.file.{Files, Path, Paths}
import repro.SparkSpec
import repro.exp.Tables

/** Shared state for all bench suites (one JVM per `bench/test` run): one
  * [[Tables]] over the shared session. Profiles are cached on disk under
  * `target/tpcds-lite`, so only the first run pays the query-execution cost.
  *
  * Every suite prints its paper-table reproduction and also writes it to
  * `target/reports/<name>.txt` for EXPERIMENTS.md assembly.
  */
object BenchHarness {

  val reportDir: Path = Paths.get("target/reports")

  lazy val tables: Tables = Tables(SparkSpec.shared)

  def report(name: String, content: String): Unit = {
    println(content)
    Files.createDirectories(reportDir)
    Files.writeString(reportDir.resolve(s"$name.txt"), content)
  }
}

/** Base trait: bench suites are ScalaTest suites over the shared session. */
trait BenchSpec extends SparkSpec
