//! Privilege catalog and authorization checks.
//!
//! The paper's governance requirement: *all* authorization decisions are
//! made by DB2, never by the accelerator. [`PrivilegeCatalog::check`] makes
//! each one, called from the federation's one authorization step
//! (`Idaa::authorize`) and from DB2's own [`crate::HostEngine::query`], and
//! its [`Granted`] is the only way onto a path to rows. E11 measures it.

use idaa_common::{Error, ObjectName, Result};
use idaa_sql::Privilege;
use std::collections::{HashMap, HashSet};

/// DB2's authorization of `user` for `privilege` on `object`, as a value.
/// Only [`PrivilegeCatalog::check`] makes one; every entry point that
/// touches rows takes one, and acts only on the object it names.
#[derive(Debug)]
pub struct Granted {
    user: String,
    object: ObjectName,
    privilege: Privilege,
}

impl Granted {
    /// Whether this token grants exactly `privilege` on `object`.
    pub fn covers(&self, object: &ObjectName, privilege: Privilege) -> bool {
        self.object == *object && self.privilege == privilege
    }

    /// The object, when this token grants `privilege` on it. Any other
    /// token is a caller bug, not a denial: `Error::internal`.
    pub fn object_for(&self, privilege: Privilege) -> Result<&ObjectName> {
        if self.privilege == privilege {
            return Ok(&self.object);
        }
        Err(Error::internal(format!("{}'s token is not {privilege} on {}", self.user, self.object)))
    }
}

/// Grants per (grantee, object).
#[derive(Debug, Default)]
pub struct PrivilegeCatalog {
    grants: HashMap<(String, ObjectName), HashSet<Privilege>>,
    /// Object owners hold every privilege implicitly.
    owners: HashMap<ObjectName, String>,
    /// SYSADM-like authorization ids.
    admins: HashSet<String>,
}

impl PrivilegeCatalog {
    /// Catalog with one administrator.
    pub fn with_admin(admin: &str) -> PrivilegeCatalog {
        let mut p = PrivilegeCatalog::default();
        p.admins.insert(admin.to_uppercase());
        p
    }

    /// Record object ownership (creator gets full control).
    pub fn set_owner(&mut self, object: ObjectName, owner: &str) {
        self.owners.insert(object, owner.to_uppercase());
    }

    /// Forget an object (DROP TABLE).
    pub fn drop_object(&mut self, object: &ObjectName) {
        self.owners.remove(object);
        self.grants.retain(|(_, o), _| o != object);
    }

    /// `GRANT privileges ON object TO grantee` — only admins, the owner, or
    /// someone holding the privilege may grant (simplified WITH GRANT
    /// OPTION: any holder may re-grant).
    pub fn grant(
        &mut self,
        grantor: &str,
        grantee: &str,
        object: &ObjectName,
        privileges: &[Privilege],
    ) -> Result<()> {
        for p in privileges {
            if !self.is_admin(grantor)
                && self.owners.get(object).map(String::as_str) != Some(&grantor.to_uppercase())
                && !self.holds(grantor, object, *p)
            {
                return Err(Error::Privilege(format!(
                    "{grantor} cannot grant {p} on {object}"
                )));
            }
        }
        let entry = self
            .grants
            .entry((grantee.to_uppercase(), object.clone()))
            .or_default();
        entry.extend(privileges.iter().copied());
        Ok(())
    }

    /// `REVOKE privileges ON object FROM grantee`.
    pub fn revoke(
        &mut self,
        revoker: &str,
        grantee: &str,
        object: &ObjectName,
        privileges: &[Privilege],
    ) -> Result<()> {
        if !self.is_admin(revoker)
            && self.owners.get(object).map(String::as_str) != Some(&revoker.to_uppercase())
        {
            return Err(Error::Privilege(format!("{revoker} cannot revoke on {object}")));
        }
        if let Some(set) = self.grants.get_mut(&(grantee.to_uppercase(), object.clone())) {
            for p in privileges {
                if *p == Privilege::All {
                    set.clear();
                } else {
                    set.remove(p);
                }
            }
        }
        Ok(())
    }

    fn is_admin(&self, user: &str) -> bool {
        self.admins.contains(&user.to_uppercase())
    }

    fn holds(&self, user: &str, object: &ObjectName, privilege: Privilege) -> bool {
        self.grants
            .get(&(user.to_uppercase(), object.clone()))
            .map(|set| set.contains(&privilege) || set.contains(&Privilege::All))
            .unwrap_or(false)
    }

    /// Authorization check: admin, owner, or explicit grant.
    pub fn check(&self, user: &str, object: &ObjectName, privilege: Privilege) -> Result<Granted> {
        if self.is_admin(user)
            || self.owners.get(object).map(String::as_str) == Some(&user.to_uppercase())
            || self.holds(user, object, privilege)
        {
            Ok(Granted { user: user.to_uppercase(), object: object.clone(), privilege })
        } else {
            Err(Error::Privilege(format!(
                "user {user} lacks {privilege} privilege on {object}"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: &str) -> ObjectName {
        ObjectName::bare(n)
    }

    #[test]
    fn admin_has_everything() {
        let p = PrivilegeCatalog::with_admin("SYSADM");
        p.check("SYSADM", &obj("T"), Privilege::Select).unwrap();
        p.check("sysadm", &obj("T"), Privilege::Delete).unwrap();
    }

    #[test]
    fn owner_has_everything_on_own_objects() {
        let mut p = PrivilegeCatalog::with_admin("SYSADM");
        p.set_owner(obj("T"), "ALICE");
        p.check("ALICE", &obj("T"), Privilege::Update).unwrap();
        assert!(p.check("ALICE", &obj("OTHER"), Privilege::Select).is_err());
    }

    #[test]
    fn grant_and_check() {
        let mut p = PrivilegeCatalog::with_admin("SYSADM");
        p.set_owner(obj("T"), "ALICE");
        assert!(p.check("BOB", &obj("T"), Privilege::Select).is_err());
        p.grant("ALICE", "BOB", &obj("T"), &[Privilege::Select]).unwrap();
        p.check("BOB", &obj("T"), Privilege::Select).unwrap();
        assert!(p.check("BOB", &obj("T"), Privilege::Insert).is_err());
    }

    #[test]
    fn all_privilege_covers_everything() {
        let mut p = PrivilegeCatalog::with_admin("SYSADM");
        p.grant("SYSADM", "BOB", &obj("T"), &[Privilege::All]).unwrap();
        p.check("BOB", &obj("T"), Privilege::Delete).unwrap();
        p.check("BOB", &obj("T"), Privilege::Execute).unwrap();
    }

    #[test]
    fn unauthorized_grant_rejected() {
        let mut p = PrivilegeCatalog::with_admin("SYSADM");
        p.set_owner(obj("T"), "ALICE");
        let r = p.grant("MALLORY", "MALLORY", &obj("T"), &[Privilege::Select]);
        assert!(matches!(r, Err(Error::Privilege(_))));
    }

    #[test]
    fn holder_may_regrant() {
        let mut p = PrivilegeCatalog::with_admin("SYSADM");
        p.set_owner(obj("T"), "ALICE");
        p.grant("ALICE", "BOB", &obj("T"), &[Privilege::Select]).unwrap();
        p.grant("BOB", "CAROL", &obj("T"), &[Privilege::Select]).unwrap();
        p.check("CAROL", &obj("T"), Privilege::Select).unwrap();
    }

    #[test]
    fn revoke_removes_access() {
        let mut p = PrivilegeCatalog::with_admin("SYSADM");
        p.set_owner(obj("T"), "ALICE");
        p.grant("ALICE", "BOB", &obj("T"), &[Privilege::Select, Privilege::Insert]).unwrap();
        p.revoke("ALICE", "BOB", &obj("T"), &[Privilege::Select]).unwrap();
        assert!(p.check("BOB", &obj("T"), Privilege::Select).is_err());
        p.check("BOB", &obj("T"), Privilege::Insert).unwrap();
        p.revoke("ALICE", "BOB", &obj("T"), &[Privilege::All]).unwrap();
        assert!(p.check("BOB", &obj("T"), Privilege::Insert).is_err());
        // Non-owner cannot revoke.
        assert!(p.revoke("BOB", "ALICE", &obj("T"), &[Privilege::All]).is_err());
    }

    #[test]
    fn drop_object_clears_grants() {
        let mut p = PrivilegeCatalog::with_admin("SYSADM");
        p.set_owner(obj("T"), "ALICE");
        p.grant("ALICE", "BOB", &obj("T"), &[Privilege::Select]).unwrap();
        p.drop_object(&obj("T"));
        assert!(p.check("ALICE", &obj("T"), Privilege::Select).is_err());
        assert!(p.check("BOB", &obj("T"), Privilege::Select).is_err());
    }
}
