package repro.tpcds

import java.nio.file.Files
import java.nio.file.attribute.{PosixFileAttributeView, PosixFilePermission}
import scala.jdk.CollectionConverters._
import org.apache.hadoop.fs.{LocalFileSystem, Path, RawLocalFileSystem}
import org.apache.hadoop.fs.permission.FsPermission

/** Hadoop's checksummed local file system, except that permissions are set
  * in-process. Without Hadoop's native library, `RawLocalFileSystem` forks a
  * `chmod` for every file (data and `.crc`) and directory a write creates;
  * this one calls `PosixFileAttributeView.setPermissions` instead, which
  * makes the same `chmod` system call, so files and modes come out as the
  * stock file system's. [[TpcdsLite.materialize]] selects it for its own
  * writes only, through the per-write option `fs.file.impl`.
  */
final class PosixLocalFileSystem extends LocalFileSystem(new PosixLocalFileSystem.Raw)

object PosixLocalFileSystem {

  final class Raw extends RawLocalFileSystem {
    override def setPermission(p: Path, permission: FsPermission): Unit = {
      val view = Files.getFileAttributeView(pathToFile(p).toPath, classOf[PosixFileAttributeView])
      // A file store without a POSIX view, or the sticky bit (which no
      // PosixFilePermission holds): leave both to the stock implementation.
      if (view == null || permission.getStickyBit) super.setPermission(p, permission)
      else view.setPermissions(posix(permission.toShort).asJava)
    }
  }

  /** The `rwxrwxrwx` bits of `mode` (`PosixFilePermission` lists them in
    * that order, from 0400 down to 0001).
    */
  private def posix(mode: Int): Set[PosixFilePermission] =
    PosixFilePermission.values.zipWithIndex.collect { case (p, i) if (mode & (0x100 >> i)) != 0 => p }.toSet
}
