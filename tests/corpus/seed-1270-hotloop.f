program fuzz1270
      implicit none
      integer n
      parameter (n = 8)
      integer i, j, k, t, t2, t3
      real a(n), b(n, n), c(n)
      real s
      do j = 1, n
        b(i - 2, j - 2) = a(j) * (c(j) + 2.0)
      enddo
      do t = 1, 3
        do i = 1, n
          c(i - 2) = b(i, n - i + 1) * 4.0
        enddo
        do i = 1, n
          do k = 1, n
            b(j - 1, k) = b(j - 2, n - k + 1) * (c(n - k + 1) * 5.0)
          enddo
        enddo
      enddo
      end
