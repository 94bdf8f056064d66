//! What the run was measured on: processor count, kernel, the filesystem
//! under the scratch directory, and the process's own CPU time.

use std::path::Path;

/// Clock ticks per second of the CPU times in `/proc/<pid>/stat`
/// (Linux's fixed `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// Process CPU time consumed so far, all threads, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// User-mode CPU.
    pub user_us: f64,
    /// Kernel-mode CPU.
    pub sys_us: f64,
}

impl CpuTimes {
    /// This process's CPU times from `/proc/self/stat`, or `None` where
    /// the file is missing or malformed.
    pub fn now() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        CpuTimes::parse(&stat)
    }

    /// Parses a `/proc/<pid>/stat` line: fields 14 and 15 (`utime`,
    /// `stime`), counted after the parenthesised command name, which may
    /// itself hold spaces.
    pub fn parse(stat: &str) -> Option<CpuTimes> {
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some(CpuTimes {
            user_us: utime / USER_HZ * 1e6,
            sys_us: stime / USER_HZ * 1e6,
        })
    }

    /// The CPU spent between `earlier` and `self`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
        }
    }

    /// User plus system time.
    pub fn total_us(self) -> f64 {
        self.user_us + self.sys_us
    }
}

/// CPU time the hypervisor has given other guests so far, in clock
/// ticks summed over this host's processors (the `steal` column of the
/// `cpu` line of `/proc/stat`), or `None` where unavailable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_steal(&stat)
}

fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The host description printed with every run.
#[derive(Debug, Clone)]
pub struct Host {
    /// Processors available to this process.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// Filesystem type under the scratch directory.
    pub scratch_fs: String,
}

impl Host {
    /// Describes this host, with `scratch` as the directory whose
    /// filesystem the WAL disks live on.
    pub fn probe(scratch: &Path) -> Host {
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let scratch_fs = std::fs::read_to_string("/proc/self/mountinfo")
            .ok()
            .and_then(|info| {
                let path = scratch.canonicalize().ok()?;
                fs_type_of(&info, &path)
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            kernel,
            scratch_fs,
        }
    }
}

/// The filesystem type of the deepest mount in `mountinfo` holding
/// `path`. Each line reads `id parent dev root mountpoint opts … - type
/// source superopts`.
pub fn fs_type_of(mountinfo: &str, path: &Path) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let mount = Path::new(fields.get(4)?);
            let dash = fields.iter().position(|f| *f == "-")?;
            let fs = fields.get(dash + 1)?;
            path.starts_with(mount)
                .then(|| (mount.components().count(), fs.to_string()))
        })
        .max_by_key(|(depth, _)| *depth)
        .map(|(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_read_after_the_command_name() {
        let line = "42 (my (odd) cmd) S 1 42 42 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 9 0";
        let t = CpuTimes::parse(line).expect("well-formed");
        assert_eq!(t.user_us, 2_500_000.0);
        assert_eq!(t.sys_us, 750_000.0);
        assert_eq!(t.total_us(), 3_250_000.0);
        assert_eq!(CpuTimes::parse("42 (x) S 1"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_column() {
        let stat = "cpu  73282 0 33584 281679 11589 0 8624 14855 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(14855));
        assert_eq!(parse_steal("cpu0 1 2\n"), None);
    }

    #[test]
    fn deepest_mount_wins() {
        let info = "22 1 8:1 / / rw - ext4 /dev/vda rw\n\
                    30 22 0:5 / /data/tmp rw - tmpfs tmpfs rw\n";
        assert_eq!(
            fs_type_of(info, Path::new("/data/tmp/x")).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            fs_type_of(info, Path::new("/data/x")).as_deref(),
            Some("ext4")
        );
    }
}
